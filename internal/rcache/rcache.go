// Package rcache is the serving tier's result cache: a sharded LRU over
// pair resistances keyed on (graph fingerprint, s, t), with singleflight
// deduplication so a stampede of identical queries collapses to one engine
// solve.
//
// Resistance distances are static between graph versions, so cacheability
// is near-perfect: a value keyed by the fingerprint of the graph it was
// computed on can never go stale — publishing a new epoch (live re-base or
// SIGHUP snapshot rollout) changes the fingerprint, and entries for the old
// version simply stop being looked up and age out of the LRU. No explicit
// invalidation path exists because none is needed.
package rcache

import (
	"container/list"
	"context"
	"sync"

	"landmarkrd/internal/obs"
)

// Key identifies one cached pair value. S <= T always holds (resistance is
// symmetric); build keys with NewKey to get the canonicalization.
type Key struct {
	FP   uint64 // Graph.Fingerprint() of the graph version the value is from
	S, T int32
}

// NewKey canonicalizes (s,t) into a Key — (s,t) and (t,s) share one entry.
func NewKey(fp uint64, s, t int) Key {
	if s > t {
		s, t = t, s
	}
	return Key{FP: fp, S: int32(s), T: int32(t)}
}

// Outcome says how a Do call was answered.
type Outcome int

const (
	// Miss: this call ran the compute function.
	Miss Outcome = iota
	// Hit: answered from a stored value, zero compute.
	Hit
	// Shared: piggybacked on a concurrent identical call's compute
	// (singleflight), zero compute of its own.
	Shared
)

func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return "unknown"
	}
}

// numShards spreads lock contention; must be a power of two. 16 shards keep
// a saturated 64-way storm mostly uncontended while the per-shard state
// stays two cache lines.
const numShards = 16

type entry struct {
	key Key
	val float64
}

// flight is one in-progress compute other callers can wait on.
type flight struct {
	done    chan struct{}
	val     float64
	err     error
	private bool // the leader's answer was not shareable
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*list.Element
	order   *list.List // front = most recently used
	flights map[Key]*flight
}

// Cache is the sharded, singleflight-deduplicated LRU. Safe for concurrent
// use. The zero value is not usable; construct with New.
type Cache struct {
	shards   [numShards]shard
	capShard int
	metrics  *obs.Metrics
}

// New builds a cache holding roughly capacity entries (rounded up to a
// multiple of the shard count; capacity <= 0 means 4096). metrics may be
// nil; when set it receives CacheHits / CacheMisses / CacheShared /
// CacheEvictions.
func New(capacity int, metrics *obs.Metrics) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	if metrics == nil {
		metrics = &obs.Metrics{}
	}
	perShard := (capacity + numShards - 1) / numShards
	c := &Cache{capShard: perShard, metrics: metrics}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*list.Element)
		c.shards[i].order = list.New()
		c.shards[i].flights = make(map[Key]*flight)
	}
	return c
}

// shardFor mixes the key and picks a shard. FP alone must not pick the
// shard (every entry of one graph version would share a shard), so the pair
// is folded in.
func (c *Cache) shardFor(k Key) *shard {
	h := k.FP
	h ^= uint64(k.S)*0x9e3779b97f4a7c15 + uint64(k.T)*0xbf58476d1ce4e5b9
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &c.shards[h&(numShards-1)]
}

// Len returns the number of stored entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Get returns the stored value for k, recording a hit (and refreshing the
// entry's LRU position) or nothing — Get does not count misses, so probes
// that fall through to Do are not double-counted.
func (c *Cache) Get(k Key) (float64, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		s.order.MoveToFront(el)
		v := el.Value.(*entry).val
		s.mu.Unlock()
		c.metrics.CacheHits.Inc()
		return v, true
	}
	s.mu.Unlock()
	return 0, false
}

// Put stores v under k unconditionally, evicting the least recently used
// entry of the shard if it is full.
func (c *Cache) Put(k Key, v float64) {
	s := c.shardFor(k)
	s.mu.Lock()
	s.storeLocked(c, k, v)
	s.mu.Unlock()
}

func (s *shard) storeLocked(c *Cache, k Key, v float64) {
	if el, ok := s.entries[k]; ok {
		el.Value.(*entry).val = v
		s.order.MoveToFront(el)
		return
	}
	s.entries[k] = s.order.PushFront(&entry{key: k, val: v})
	for len(s.entries) > c.capShard {
		back := s.order.Back()
		if back == nil {
			break
		}
		s.order.Remove(back)
		delete(s.entries, back.Value.(*entry).key)
		c.metrics.CacheEvictions.Inc()
	}
}

// Do answers the query for k: from the cache (Hit), by waiting on a
// concurrent identical call (Shared), or by running fn (Miss). fn returns
// the value, whether it is shareable (an exact, converged answer), and an
// error. A shareable answer is stored and handed to every waiter. One that
// is not (degraded, unconverged) goes to the leader alone and is not
// stored: every waiter on that flight then runs its own fn, concurrently
// and without a new flight, and counts as a Miss. Errors are never cached;
// every waiter of a failed flight gets the leader's error and the next call
// recomputes.
//
// ctx bounds only the wait of a Shared caller — fn itself is responsible
// for honoring its own context. A Shared caller whose ctx expires returns
// ctx's error without disturbing the in-progress compute.
func (c *Cache) Do(ctx context.Context, k Key, fn func() (float64, bool, error)) (float64, Outcome, error) {
	s := c.shardFor(k)
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		s.order.MoveToFront(el)
		v := el.Value.(*entry).val
		s.mu.Unlock()
		c.metrics.CacheHits.Inc()
		return v, Hit, nil
	}
	if fl, ok := s.flights[k]; ok {
		s.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return 0, Shared, context.Cause(ctx)
		}
		if fl.private {
			v, _, err := fn()
			c.metrics.CacheMisses.Inc()
			return v, Miss, err
		}
		c.metrics.CacheShared.Inc()
		return fl.val, Shared, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[k] = fl
	s.mu.Unlock()

	v, shareable, err := fn()
	fl.val, fl.err, fl.private = v, err, err == nil && !shareable

	s.mu.Lock()
	if shareable && err == nil {
		s.storeLocked(c, k, v)
	}
	delete(s.flights, k)
	s.mu.Unlock()
	close(fl.done)
	c.metrics.CacheMisses.Inc()
	return v, Miss, err
}
