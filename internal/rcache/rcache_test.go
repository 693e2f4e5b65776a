package rcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"landmarkrd/internal/obs"
)

func solve(v float64) func() (float64, bool, error) {
	return func() (float64, bool, error) { return v, true, nil }
}

func TestHitMissBasics(t *testing.T) {
	m := &obs.Metrics{}
	c := New(64, m)
	ctx := context.Background()

	v, out, err := c.Do(ctx, NewKey(1, 3, 7), solve(2.5))
	if err != nil || out != Miss || v != 2.5 {
		t.Fatalf("first Do = (%g, %v, %v), want (2.5, miss, nil)", v, out, err)
	}
	v, out, err = c.Do(ctx, NewKey(1, 3, 7), func() (float64, bool, error) {
		t.Fatal("hit path ran the solver")
		return 0, false, nil
	})
	if err != nil || out != Hit || v != 2.5 {
		t.Fatalf("second Do = (%g, %v, %v), want (2.5, hit, nil)", v, out, err)
	}
	if m.CacheHits.Load() != 1 || m.CacheMisses.Load() != 1 {
		t.Errorf("counters hits=%d misses=%d, want 1/1", m.CacheHits.Load(), m.CacheMisses.Load())
	}
}

func TestKeyCanonicalization(t *testing.T) {
	c := New(16, nil)
	ctx := context.Background()
	if _, out, _ := c.Do(ctx, NewKey(9, 7, 3), solve(1)); out != Miss {
		t.Fatalf("first (7,3) = %v, want miss", out)
	}
	if _, out, _ := c.Do(ctx, NewKey(9, 3, 7), solve(1)); out != Hit {
		t.Errorf("(3,7) after (7,3) = %v, want hit (symmetric key)", out)
	}
}

// TestFingerprintKeying: the same pair under a different graph fingerprint
// is a different entry — publishing a new graph version invalidates by
// construction.
func TestFingerprintKeying(t *testing.T) {
	c := New(16, nil)
	ctx := context.Background()
	if v, _, _ := c.Do(ctx, NewKey(1, 0, 5), solve(10)); v != 10 {
		t.Fatal("seed failed")
	}
	v, out, _ := c.Do(ctx, NewKey(2, 0, 5), solve(20))
	if out != Miss || v != 20 {
		t.Errorf("new fingerprint = (%g, %v), want fresh miss (20, miss)", v, out)
	}
	if v, out, _ := c.Do(ctx, NewKey(1, 0, 5), solve(-1)); out != Hit || v != 10 {
		t.Errorf("old fingerprint = (%g, %v), want (10, hit)", v, out)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(16, nil)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, NewKey(1, 1, 2), func() (float64, bool, error) { return 0, true, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	_, out, err := c.Do(ctx, NewKey(1, 1, 2), solve(4))
	if err != nil || out != Miss {
		t.Errorf("after error = (%v, %v), want fresh miss", out, err)
	}
}

func TestUncacheableNotStored(t *testing.T) {
	c := New(16, nil)
	ctx := context.Background()
	// A degraded answer (store=false) is returned but not kept.
	v, out, err := c.Do(ctx, NewKey(1, 1, 2), func() (float64, bool, error) { return 9, false, nil })
	if v != 9 || out != Miss || err != nil {
		t.Fatalf("degraded Do = (%g, %v, %v)", v, out, err)
	}
	if _, out, _ := c.Do(ctx, NewKey(1, 1, 2), solve(4)); out != Miss {
		t.Errorf("after uncacheable answer = %v, want miss", out)
	}
}

func TestLRUEviction(t *testing.T) {
	m := &obs.Metrics{}
	// Capacity 16 over 16 shards = 1 entry per shard: inserting two keys of
	// one shard must evict the older one.
	c := New(16, m)
	ctx := context.Background()
	const n = 64
	for i := 0; i < n; i++ {
		c.Do(ctx, NewKey(1, i, i+1000), solve(float64(i)))
	}
	if got := c.Len(); got > 16 {
		t.Errorf("cache holds %d entries, cap 16", got)
	}
	if m.CacheEvictions.Load() == 0 {
		t.Error("no evictions recorded after overfill")
	}
	if m.CacheEvictions.Load()+int64(c.Len()) != n {
		t.Errorf("evictions %d + len %d != inserts %d", m.CacheEvictions.Load(), c.Len(), n)
	}
}

func TestLRUKeepsRecentlyUsed(t *testing.T) {
	c := New(numShards, nil) // one entry per shard
	ctx := context.Background()
	k1 := NewKey(1, 0, 1)
	c.Do(ctx, k1, solve(1))
	// Find a second key in the same shard, insert it; k1 must be evicted
	// (it is the LRU once k2 lands).
	var k2 Key
	for i := 2; ; i++ {
		k2 = NewKey(1, i, i+1)
		if c.shardFor(k2) == c.shardFor(k1) {
			break
		}
	}
	c.Do(ctx, k2, solve(2))
	if _, ok := c.Get(k1); ok {
		t.Error("LRU entry survived an over-capacity insert")
	}
	if _, ok := c.Get(k2); !ok {
		t.Error("most recent entry evicted")
	}
}

// TestSingleflightStorm: a storm of concurrent identical queries performs
// exactly one solve; everyone else is a hit or piggybacks on the flight.
func TestSingleflightStorm(t *testing.T) {
	m := &obs.Metrics{}
	c := New(64, m)
	ctx := context.Background()
	key := NewKey(42, 3, 9)

	var calls atomic.Int64
	gate := make(chan struct{})
	const workers = 64
	var wg sync.WaitGroup
	results := make([]float64, workers)
	outcomes := make([]Outcome, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, out, err := c.Do(ctx, key, func() (float64, bool, error) {
				calls.Add(1)
				return 7.25, true, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], outcomes[i] = v, out
		}(i)
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("storm of %d identical queries ran %d solves, want exactly 1", workers, got)
	}
	var miss, hit, shared int
	for i := range outcomes {
		if results[i] != 7.25 {
			t.Fatalf("worker %d got %g, want 7.25", i, results[i])
		}
		switch outcomes[i] {
		case Miss:
			miss++
		case Hit:
			hit++
		case Shared:
			shared++
		}
	}
	if miss != 1 || hit+shared != workers-1 {
		t.Errorf("outcomes miss=%d hit=%d shared=%d, want 1 miss and %d hit+shared", miss, hit, shared, workers-1)
	}
	if m.CacheMisses.Load() != 1 {
		t.Errorf("CacheMisses = %d, want 1", m.CacheMisses.Load())
	}
	if m.CacheHits.Load()+m.CacheShared.Load() != workers-1 {
		t.Errorf("CacheHits+CacheShared = %d, want %d",
			m.CacheHits.Load()+m.CacheShared.Load(), workers-1)
	}
}

// TestUnshareableAnswerStaysWithItsCaller: when the leader's answer is not
// shareable (degraded, unconverged), no waiter adopts it — each runs fn
// itself and gets its own value, counted as a miss, never as shared.
func TestUnshareableAnswerStaysWithItsCaller(t *testing.T) {
	m := &obs.Metrics{}
	c := New(64, m)
	ctx := context.Background()
	key := NewKey(7, 1, 2)
	const callers = 16

	var calls atomic.Int64
	values := make([]float64, callers)
	outcomes := make([]Outcome, callers)
	do := func(i int, before func()) {
		v, out, err := c.Do(ctx, key, func() (float64, bool, error) {
			calls.Add(1)
			if before != nil {
				before()
			}
			return float64(i), false, nil
		})
		if err != nil {
			t.Error(err)
		}
		values[i], outcomes[i] = v, out
	}

	inFlight, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(callers)
	go func() {
		defer wg.Done()
		do(0, func() { close(inFlight); <-release })
	}()
	<-inFlight
	for i := 1; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			do(i, nil)
		}(i)
	}
	// Give the waiters time to join the leader's flight. The assertions
	// hold at any interleaving — a caller arriving after the flight leads
	// its own — the pause keeps the test sensitive to answers being shared.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != callers {
		t.Errorf("fn ran %d times for %d callers, want once per caller", got, callers)
	}
	for i := range values {
		if values[i] != float64(i) || outcomes[i] != Miss {
			t.Errorf("caller %d got (%g, %v), want its own value (%d, miss)", i, values[i], outcomes[i], i)
		}
	}
	if m.CacheMisses.Load() != callers || m.CacheShared.Load() != 0 {
		t.Errorf("CacheMisses=%d CacheShared=%d, want %d and 0", m.CacheMisses.Load(), m.CacheShared.Load(), callers)
	}
	if c.Len() != 0 {
		t.Errorf("an unshareable answer was stored (%d entries)", c.Len())
	}
}

// TestSharedWaiterHonorsContext: a waiter whose context dies mid-flight
// returns promptly with the cause; the leader is unaffected.
func TestSharedWaiterHonorsContext(t *testing.T) {
	c := New(16, nil)
	key := NewKey(1, 2, 3)
	inFlight := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), key, func() (float64, bool, error) {
			close(inFlight)
			<-release
			return 1, true, nil
		})
		leaderDone <- err
	}()
	<-inFlight

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, key, solve(0))
		waiterDone <- err
	}()
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Errorf("leader err = %v", err)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	m := &obs.Metrics{}
	c := New(256, m)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := NewKey(uint64(i%3), i%40, (i+w)%40+50)
				want := float64(k.FP)*1000 + float64(k.S) + float64(k.T)
				v, _, err := c.Do(ctx, k, solve(want))
				if err != nil {
					t.Error(err)
					return
				}
				if v != want {
					t.Errorf("key %+v: got %g, want %g (cross-key value leak)", k, v, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkCachedPair(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		c := New(4096, nil)
		ctx := context.Background()
		keys := make([]Key, 1024)
		for i := range keys {
			keys[i] = NewKey(1, i, i+5000)
			c.Put(keys[i], float64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, out, _ := c.Do(ctx, keys[i%len(keys)], solve(0)); out != Hit {
				b.Fatal("expected hit")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := New(1<<20, nil)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, out, _ := c.Do(ctx, NewKey(1, i, i+1<<24), solve(1)); out != Miss {
				b.Fatal("expected miss")
			}
		}
	})
}

// Ensure key printing stays useful in failure messages (and Outcome strings
// are stable — rdserver serves them in responses).
func TestOutcomeStrings(t *testing.T) {
	for _, tc := range []struct {
		o    Outcome
		want string
	}{{Miss, "miss"}, {Hit, "hit"}, {Shared, "shared"}, {Outcome(99), "unknown"}} {
		if got := tc.o.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", int(tc.o), got, tc.want)
		}
	}
	if s := fmt.Sprintf("%+v", NewKey(3, 9, 4)); s != "{FP:3 S:4 T:9}" {
		t.Errorf("key format %q changed", s)
	}
}
