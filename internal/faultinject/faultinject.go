// Package faultinject provides the registry-gated fault hooks the
// fault-tolerance test suite drives. Hook points are compiled into the
// iterative kernels (CG iterations, push queues, walk loops, the batch
// engine, and the index build workers) at the same throttled cadence as
// their cancellation polls, and are completely inert until a test arms a
// fault: the fast path of At is a single atomic pointer load returning nil,
// and the hot loops guard every Fire behind a nil check captured once per
// solve/query.
//
// Three fault classes can be injected, alone or combined:
//
//   - a transient typed error (ErrInjected by default, or a caller-supplied
//     cause) that propagates out of the kernel like any other failure;
//   - artificial latency, which must never change a result;
//   - a panic, which the worker-isolation layers must recover into a typed
//     internal error rather than letting it kill the process.
//
// Faults fire on a deterministic schedule (skip the first After hits, then
// every Every-th hit, at most Count times), so tests can target "the third
// CG iteration of the second query" reproducibly.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one hook point. The constants below are the sites threaded
// through the library; arming an unknown site is allowed (it simply never
// fires) so tests stay decoupled from the exact hook inventory.
type Site string

// Hook sites compiled into the library.
const (
	// SiteCGIter fires inside the conjugate-gradient iteration loop, at
	// the cancellation-poll cadence (every few iterations).
	SiteCGIter Site = "cg.iter"
	// SitePushQueue fires inside the grounded-push queue loop, at the
	// cancellation-poll cadence (every few thousand edge relaxations).
	SitePushQueue Site = "push.queue"
	// SiteWalkLoop fires once per absorbed-walk iteration of the Monte
	// Carlo estimators (AbWalk sampling loops and the BiPush residual
	// correction).
	SiteWalkLoop Site = "walk.loop"
	// SiteBatchQuery fires once per query inside a batch-engine worker,
	// before the estimator runs.
	SiteBatchQuery Site = "batch.query"
	// SiteIndexBuild fires once per vertex inside the exact and Monte
	// Carlo landmark index build workers, and once per sketch row inside
	// a DiagSketch build's row-solve workers.
	SiteIndexBuild Site = "index.build"
)

// ErrInjected is the typed transient error injected faults surface as when
// Fault.Err is nil. The batch engine classifies errors matching it (via
// errors.Is) as retriable.
var ErrInjected = errors.New("faultinject: injected transient fault")

// Error is what Fire returns when a fault fires with an error component.
// It wraps the fault's cause (ErrInjected by default) so errors.Is works
// through every layer the error crosses.
type Error struct {
	Site  Site
	cause error
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("faultinject: at %s: %v", e.Site, e.cause) }

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.cause }

// Panic is the value injected panics carry, so recovery layers (and tests)
// can tell an injected panic from a genuine one.
type Panic struct {
	Site  Site
	Value any
}

// String implements fmt.Stringer.
func (p *Panic) String() string { return fmt.Sprintf("faultinject: panic at %s: %v", p.Site, p.Value) }

// Fault describes what to inject at a site and on which hits. The zero
// value fires a transient ErrInjected error on every hit.
type Fault struct {
	// Err is the error cause to inject; nil means ErrInjected. Ignored
	// when Panic is set.
	Err error
	// Latency is slept before the error/panic (or alone, for a pure
	// latency fault when Err is nil and Panic is nil and LatencyOnly).
	Latency time.Duration
	// LatencyOnly makes the fault sleep without failing: Fire returns nil
	// after the delay. Latency must be set.
	LatencyOnly bool
	// Panic, when non-nil, makes Fire panic with *Panic{Site, Panic}
	// instead of returning an error.
	Panic any
	// After skips the first After hits at the site before firing.
	After int64
	// Every fires on every Every-th eligible hit (default 1 = every hit).
	Every int64
	// Count caps the number of fires (0 = unlimited).
	Count int64
}

// Hook is one armed fault at one site. The pointer returned by At is nil
// when the site is disarmed; all methods are nil-receiver safe.
type Hook struct {
	site  Site
	f     Fault
	hits  atomic.Int64
	fires atomic.Int64
}

// Fire counts one hit and injects the armed fault if its schedule says so.
// It returns nil (without any side effect) when the hook is nil or the
// schedule skips this hit; otherwise it sleeps the configured latency and
// then returns the typed error or panics. Safe for concurrent use.
func (h *Hook) Fire() error {
	if h == nil {
		return nil
	}
	hit := h.hits.Add(1)
	if hit <= h.f.After {
		return nil
	}
	every := h.f.Every
	if every <= 0 {
		every = 1
	}
	if (hit-h.f.After-1)%every != 0 {
		return nil
	}
	if h.f.Count > 0 {
		// Reserve a fire slot; hits past Count skip without counting.
		for {
			n := h.fires.Load()
			if n >= h.f.Count {
				return nil
			}
			if h.fires.CompareAndSwap(n, n+1) {
				break
			}
		}
	} else {
		h.fires.Add(1)
	}
	if h.f.Latency > 0 {
		time.Sleep(h.f.Latency)
	}
	if h.f.Panic != nil {
		panic(&Panic{Site: h.site, Value: h.f.Panic})
	}
	if h.f.LatencyOnly {
		return nil
	}
	cause := h.f.Err
	if cause == nil {
		cause = ErrInjected
	}
	return &Error{Site: h.site, cause: cause}
}

// registry holds the armed hooks behind one atomic pointer so the disarmed
// fast path of At is a single load.
var (
	mu    sync.Mutex
	armed atomic.Pointer[map[Site]*Hook]
)

// At returns the armed hook for site, or nil when nothing is armed there.
// Kernels call it once per solve/query and keep the pointer, so the per
// iteration cost of a disarmed hook is one nil check.
func At(site Site) *Hook {
	m := armed.Load()
	if m == nil {
		return nil
	}
	return (*m)[site]
}

// Arm installs f at site, replacing any previously armed fault there (and
// resetting its counters).
func Arm(site Site, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	next := map[Site]*Hook{}
	if cur := armed.Load(); cur != nil {
		for s, h := range *cur {
			next[s] = h
		}
	}
	next[site] = &Hook{site: site, f: f}
	armed.Store(&next)
}

// Disarm removes the fault at site, if any.
func Disarm(site Site) {
	mu.Lock()
	defer mu.Unlock()
	cur := armed.Load()
	if cur == nil {
		return
	}
	if _, ok := (*cur)[site]; !ok {
		return
	}
	next := map[Site]*Hook{}
	for s, h := range *cur {
		if s != site {
			next[s] = h
		}
	}
	if len(next) == 0 {
		armed.Store(nil)
		return
	}
	armed.Store(&next)
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Store(nil)
}

// Hits reports how many times the armed hook at site has been reached
// (0 when disarmed). Tests use it to prove a hook point is actually wired.
func Hits(site Site) int64 {
	if h := At(site); h != nil {
		return h.hits.Load()
	}
	return 0
}

// Fires reports how many times the armed hook at site has fired.
func Fires(site Site) int64 {
	if h := At(site); h != nil {
		return h.fires.Load()
	}
	return 0
}
