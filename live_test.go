package landmarkrd_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	landmarkrd "landmarkrd"
)

func liveTestGraph(t *testing.T) *landmarkrd.Graph {
	t.Helper()
	g, err := landmarkrd.Grid(10, 10, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func liveTestQueries(n int) []landmarkrd.PairQuery {
	qs := make([]landmarkrd.PairQuery, 0, 12)
	for i := 0; i < 12; i++ {
		s, tt := (i*17)%n, (i*29+3)%n
		if s == tt {
			tt = (tt + 1) % n
		}
		qs = append(qs, landmarkrd.PairQuery{S: s, T: tt})
	}
	return qs
}

// TestLiveDifferentialEpochs is the headline differential checker: every
// batch answered at epoch E must bit-match the same batch against a cold
// BatchEngine built on E's materialized graph with identical options. It
// runs the check on the initial epoch, across streamed updates (which must
// NOT change epoch answers — they only grow the patch stack), and after an
// explicit re-base onto the patched graph.
func TestLiveDifferentialEpochs(t *testing.T) {
	g := liveTestGraph(t)
	ctx := context.Background()
	opts := landmarkrd.LiveOptions{
		Method: landmarkrd.AbWalk,
		Batch:  landmarkrd.BatchOptions{Options: landmarkrd.Options{Seed: 11, Walks: 200}, Workers: 3},
	}
	li, err := landmarkrd.NewLiveIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries := liveTestQueries(g.N())

	checkEpochBitMatch := func(stage string) {
		ep := li.Pin()
		defer ep.Release()
		got, err := ep.PairsContext(ctx, queries)
		if err != nil {
			t.Fatalf("%s: live batch: %v", stage, err)
		}
		// Cold rebuild of epoch E's graph with the same options: answers
		// must agree to the bit.
		cold, err := landmarkrd.NewBatchEngine(ep.Graph(), opts.Method, landmarkrd.BatchOptions{
			Options: opts.Batch.Options, Workers: opts.Batch.Workers,
		})
		if err != nil {
			t.Fatalf("%s: cold engine: %v", stage, err)
		}
		want, err := cold.PairsContext(ctx, queries)
		if err != nil {
			t.Fatalf("%s: cold batch: %v", stage, err)
		}
		if cold.Landmark() != ep.Landmark() {
			t.Fatalf("%s: cold landmark %d vs live %d", stage, cold.Landmark(), ep.Landmark())
		}
		for i := range got {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("%s: query %d errs: %v / %v", stage, i, got[i].Err, want[i].Err)
			}
			gb := math.Float64bits(got[i].Estimate.Value)
			wb := math.Float64bits(want[i].Estimate.Value)
			if gb != wb {
				t.Errorf("%s: query %d: live %v (bits %x) vs cold %v (bits %x)",
					stage, i, got[i].Estimate.Value, gb, want[i].Estimate.Value, wb)
			}
		}
	}

	checkEpochBitMatch("epoch-1")

	muts := []landmarkrd.GraphUpdate{
		{Op: landmarkrd.UpdateAddEdge, S: 0, T: 99, Weight: 1.5},
		{Op: landmarkrd.UpdateAddEdge, S: 5, T: 77, Weight: 0.5},
		{Op: landmarkrd.UpdateRemoveEdge, S: 0, T: 99, Weight: 1.5},
	}
	for _, u := range muts {
		if _, err := li.ApplyUpdate(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	if got := li.PendingPatches(); got != len(muts) {
		t.Fatalf("PendingPatches = %d, want %d", got, len(muts))
	}
	// Streamed updates must not perturb epoch answers.
	checkEpochBitMatch("epoch-1-patched")

	seq, err := li.Rebase(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("rebase published epoch %d, want 2", seq)
	}
	if got := li.PendingPatches(); got != 0 {
		t.Fatalf("PendingPatches after rebase = %d, want 0", got)
	}
	checkEpochBitMatch("epoch-2")
}

// TestLiveFreshMatchesOracle: the patch-aware fresh path must track the
// true resistance of the mutated graph (within solver tolerance) while the
// epoch answers stay frozen at the base graph.
func TestLiveFreshMatchesOracle(t *testing.T) {
	g := liveTestGraph(t)
	ctx := context.Background()
	li, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{Method: landmarkrd.BiPush})
	if err != nil {
		t.Fatal(err)
	}
	muts := []landmarkrd.GraphUpdate{
		{Op: landmarkrd.UpdateAddEdge, S: 3, T: 96, Weight: 2},
		{Op: landmarkrd.UpdateAddEdge, S: 10, T: 55, Weight: 0.75},
	}
	// Mirror the stream on a plain builder for ground truth.
	for _, u := range muts {
		if _, err := li.ApplyUpdate(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	b := landmarkrd.NewBuilder(g.N())
	g.ForEachEdge(func(u, v int32, w float64) { b.AddWeightedEdge(int(u), int(v), w) })
	for _, u := range muts {
		b.AddWeightedEdge(u.S, u.T, u.Weight)
	}
	truth, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ep := li.Pin()
	defer ep.Release()
	for _, pair := range [][2]int{{3, 96}, {0, 99}, {10, 55}, {ep.Landmark(), 42}} {
		want, err := landmarkrd.Exact(truth, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := ep.FreshPairContext(ctx, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Errorf("fresh r%v = %v, oracle %v", pair, got, want)
		}
	}
}

// TestLiveEpochLifecycle proves the retire contract end-to-end: an epoch
// superseded by a re-base must not retire while a query pins it, must
// retire exactly once after release, and retire order follows sequence
// numbers.
func TestLiveEpochLifecycle(t *testing.T) {
	g := liveTestGraph(t)
	ctx := context.Background()
	var retired []uint64
	var mu sync.Mutex
	li, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{
		Method: landmarkrd.Push,
		OnRetire: func(seq uint64) {
			mu.Lock()
			retired = append(retired, seq)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ep := li.Pin()
	if ep.Seq() != 1 {
		t.Fatalf("pinned seq %d, want 1", ep.Seq())
	}
	if _, err := li.ApplyUpdate(ctx, landmarkrd.GraphUpdate{Op: landmarkrd.UpdateAddEdge, S: 1, T: 50, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := li.Rebase(ctx); err != nil {
		t.Fatal(err)
	}
	// Epoch 1 is superseded but pinned: still fully usable, not retired.
	mu.Lock()
	if len(retired) != 0 {
		t.Fatalf("retired %v while epoch 1 was pinned", retired)
	}
	mu.Unlock()
	if _, err := ep.PairsContext(ctx, []landmarkrd.PairQuery{{S: 0, T: 99}}); err != nil {
		t.Fatalf("query on pinned superseded epoch: %v", err)
	}
	if ep.Seq() != 1 {
		t.Fatal("pinned epoch changed identity")
	}
	ep.Release()
	ep.Release() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if len(retired) != 1 || retired[0] != 1 {
		t.Fatalf("retired = %v, want [1]", retired)
	}
}

// TestLiveConcurrentStress is the N-writer/M-reader torture test: writers
// stream updates (tripping automatic re-bases), readers continuously pin
// epochs and query. Run under -race. Asserts per-reader monotone epoch
// sequences, zero query errors, and that every superseded epoch retired by
// the time the index quiesces.
func TestLiveConcurrentStress(t *testing.T) {
	g := liveTestGraph(t)
	ctx := context.Background()
	var publishes, retires atomic.Int64
	li, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{
		Method:     landmarkrd.AbWalk,
		Batch:      landmarkrd.BatchOptions{Options: landmarkrd.Options{Seed: 3, Walks: 64}, Workers: 2},
		MaxPatches: 8, // force frequent re-bases
		OnRetire:   func(uint64) { retires.Add(1) },
		OnRebase:   func(_ uint64, err error) { publishes.Add(1); _ = err },
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers       = 4
		readers       = 4
		opsPerWriter  = 24
		readsPerGoros = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				s := (w*31 + i*7) % g.N()
				tt := (w*13 + i*17 + 1) % g.N()
				if s == tt {
					continue
				}
				u := landmarkrd.GraphUpdate{Op: landmarkrd.UpdateAddEdge, S: s, T: tt, Weight: 0.25}
				if _, err := li.ApplyUpdate(ctx, u); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastSeq uint64
			for i := 0; i < readsPerGoros; i++ {
				ep := li.Pin()
				if ep.Seq() < lastSeq {
					t.Errorf("reader %d: epoch went backwards %d → %d", r, lastSeq, ep.Seq())
				}
				lastSeq = ep.Seq()
				s := (r*41 + i*11) % g.N()
				tt := (r*23 + i*5 + 2) % g.N()
				if s != tt {
					res, err := ep.PairsContext(ctx, []landmarkrd.PairQuery{{S: s, T: tt}})
					if err != nil || res[0].Err != nil {
						t.Errorf("reader %d: %v / %v", r, err, res)
					}
					fresh, err := ep.FreshPairContext(ctx, s, tt)
					if err != nil || math.IsNaN(fresh) || fresh < 0 {
						t.Errorf("reader %d: fresh %v err %v", r, fresh, err)
					}
				}
				ep.Release()
			}
		}(r)
	}
	wg.Wait()
	li.Quiesce()

	st := li.Stats()
	if st.LiveUpdates == 0 {
		t.Error("no updates recorded")
	}
	// Every superseded epoch must have retired once all pins dropped:
	// current epoch seq = 1 + publishes, retires = publishes.
	if got, want := st.EpochRetires, st.EpochPublishes; got != want {
		t.Errorf("EpochRetires = %d, EpochPublishes = %d; want equal after quiesce", got, want)
	}
	if li.Epoch() != uint64(st.EpochPublishes)+1 {
		t.Errorf("epoch %d vs publishes %d", li.Epoch(), st.EpochPublishes)
	}
}

// TestLivePortfolioAndNoIndexModes smoke-tests the two non-default serving
// shapes through update → fresh-read → rebase → single-source.
func TestLivePortfolioAndNoIndexModes(t *testing.T) {
	g := liveTestGraph(t)
	ctx := context.Background()

	t.Run("portfolio", func(t *testing.T) {
		li, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{
			Method: landmarkrd.BiPush, PortfolioK: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := li.ApplyUpdate(ctx, landmarkrd.GraphUpdate{Op: landmarkrd.UpdateAddEdge, S: 2, T: 97, Weight: 1}); err != nil {
			t.Fatal(err)
		}
		ep := li.Pin()
		if ep.Portfolio() == nil {
			t.Fatal("portfolio mode without portfolio")
		}
		if _, err := ep.SingleSourceContext(ctx, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := ep.FreshPairContext(ctx, 2, 97); err != nil {
			t.Fatal(err)
		}
		ep.Release()
		if _, err := li.Rebase(ctx); err != nil {
			t.Fatal(err)
		}
		ep2 := li.Pin()
		defer ep2.Release()
		if ep2.Seq() != 2 || ep2.Portfolio() == nil {
			t.Fatalf("post-rebase epoch %d portfolio %v", ep2.Seq(), ep2.Portfolio())
		}
	})

	t.Run("noindex", func(t *testing.T) {
		li, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{
			Method: landmarkrd.AbWalk, NoIndex: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := li.ApplyUpdate(ctx, landmarkrd.GraphUpdate{Op: landmarkrd.UpdateAddEdge, S: 0, T: 50, Weight: 2}); err != nil {
			t.Fatal(err)
		}
		ep := li.Pin()
		defer ep.Release()
		if ep.Portfolio() != nil {
			t.Fatal("NoIndex mode built a portfolio")
		}
		if _, err := ep.SingleSourceContext(ctx, 0); err == nil {
			t.Error("single-source succeeded without an index")
		}
		fresh, err := ep.FreshPairContext(ctx, 0, 50)
		if err != nil {
			t.Fatal(err)
		}
		if fresh <= 0 || fresh >= 0.5 {
			// 0–50 now has a direct 2 Ω⁻¹ edge: r must drop below 1/2.
			t.Errorf("fresh r(0,50) = %v, want (0, 0.5)", fresh)
		}
	})
}

func TestLiveValidationAndErrors(t *testing.T) {
	g := liveTestGraph(t)
	ctx := context.Background()

	if _, err := landmarkrd.NewLiveIndex(nil, landmarkrd.LiveOptions{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{
		Batch: landmarkrd.BatchOptions{PinLandmark: true},
	}); err == nil {
		t.Error("PinLandmark in Batch accepted")
	}
	if _, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{PortfolioK: 2, NoIndex: true}); err == nil {
		t.Error("NoIndex with PortfolioK accepted")
	}

	li, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{Method: landmarkrd.Push})
	if err != nil {
		t.Fatal(err)
	}
	bad := []landmarkrd.GraphUpdate{
		{Op: landmarkrd.UpdateAddEdge, S: 0, T: 1, Weight: 0},
		{Op: landmarkrd.UpdateAddEdge, S: 0, T: 1, Weight: math.Inf(1)},
		{Op: landmarkrd.UpdateAddEdge, S: 0, T: 1, Weight: math.NaN()},
		{Op: landmarkrd.UpdateAddEdge, S: 0, T: 0, Weight: 1},
		{Op: landmarkrd.UpdateAddEdge, S: 0, T: 5000, Weight: 1},
		{Op: landmarkrd.UpdateOp(9), S: 0, T: 1, Weight: 1},
	}
	for i, u := range bad {
		if _, err := li.ApplyUpdate(ctx, u); err == nil {
			t.Errorf("bad update %d accepted", i)
		}
	}
	if li.PendingPatches() != 0 {
		t.Error("rejected updates left patches behind")
	}

	// A path graph's bridge removal must surface the typed sentinel.
	pb := landmarkrd.NewBuilder(30)
	for i := 0; i < 29; i++ {
		pb.AddEdge(i, i+1)
	}
	pg, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	pli, err := landmarkrd.NewLiveIndex(pg, landmarkrd.LiveOptions{Method: landmarkrd.Push})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pli.ApplyUpdate(ctx, landmarkrd.GraphUpdate{Op: landmarkrd.UpdateRemoveEdge, S: 10, T: 11, Weight: 1})
	if !errors.Is(err, landmarkrd.ErrDisconnecting) {
		t.Fatalf("bridge removal err = %v, want ErrDisconnecting", err)
	}
}

// TestLivePublishIndexHotReload covers the unified SIGHUP path: publishing
// a prebuilt single-landmark index (a K=1 portfolio, the default serving
// shape) swaps the serving graph and drops pending patches, and the
// superseded epoch retires once unpinned.
func TestLivePublishIndexHotReload(t *testing.T) {
	g := liveTestGraph(t)
	ctx := context.Background()
	var retires atomic.Int64
	li, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{
		Method:   landmarkrd.BiPush,
		OnRetire: func(uint64) { retires.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := li.ApplyUpdate(ctx, landmarkrd.GraphUpdate{Op: landmarkrd.UpdateAddEdge, S: 0, T: 9, Weight: 1}); err != nil {
		t.Fatal(err)
	}

	g2, err := landmarkrd.Grid(8, 8, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	pf2, err := landmarkrd.BuildPortfolioIndex(g2, landmarkrd.PortfolioBuildOptions{Landmarks: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := li.PublishPortfolio(pf2)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("publish seq %d, want 2", seq)
	}
	if got := li.PendingPatches(); got != 0 {
		t.Fatalf("pending patches after reload = %d, want 0 (snapshot is authoritative)", got)
	}
	ep := li.Pin()
	defer ep.Release()
	if ep.Graph() != g2 {
		t.Fatal("reload did not adopt the new graph")
	}
	if ep.Landmark() != 0 || ep.Portfolio() != pf2 {
		t.Fatalf("reload landmark %d portfolio %p, want pinned snapshot portfolio", ep.Landmark(), ep.Portfolio())
	}
	if retires.Load() != 1 {
		t.Fatalf("retires = %d, want 1", retires.Load())
	}
	if _, err := li.PublishPortfolio(nil); err == nil {
		t.Error("nil portfolio accepted")
	}
}

// TestLiveRejectsPortfolioKDrift: a live index serves exactly PortfolioK
// landmarks (0 means 1). A portfolio of another size is rejected at
// construction and on PublishPortfolio, where the current epoch keeps
// serving; adopting it would let the next re-base silently rebuild at the
// configured K with re-selected landmarks.
func TestLiveRejectsPortfolioKDrift(t *testing.T) {
	g, _, err := landmarkrd.LoadEdgeList("testdata/corpus/grid_14x14.edges")
	if err != nil {
		t.Fatal(err)
	}
	pf4, err := landmarkrd.BuildPortfolioIndex(g, landmarkrd.PortfolioBuildOptions{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 2} {
		if _, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{PortfolioK: k, InitialPortfolio: pf4}); err == nil {
			t.Errorf("PortfolioK %d accepted a K=4 InitialPortfolio", k)
		}
	}

	li, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{PortfolioK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := li.PublishPortfolio(pf4); err == nil {
		t.Error("PortfolioK 2 published a K=4 portfolio")
	}
	ep := li.Pin()
	defer ep.Release()
	if ep.Seq() != 1 || ep.Portfolio().K() != 2 {
		t.Errorf("after a rejected publish: epoch %d serving K=%d, want epoch 1 with K=2", ep.Seq(), ep.Portfolio().K())
	}
}

// TestLiveFingerprint: the fingerprint identifies the epoch's materialized
// graph — stable while patches accumulate (epoch answers don't see them),
// changed by a re-base, and equal to a cold fingerprint of the same graph.
// This is the contract the serving tier's result cache keys on.
func TestLiveFingerprint(t *testing.T) {
	g := liveTestGraph(t)
	ctx := context.Background()
	li, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{
		Method: landmarkrd.AbWalk,
		Batch:  landmarkrd.BatchOptions{Options: landmarkrd.Options{Seed: 5, Walks: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fp0 := li.Fingerprint()
	if fp0 != g.Fingerprint() {
		t.Fatalf("live fingerprint %#x != graph fingerprint %#x", fp0, g.Fingerprint())
	}
	ep := li.Pin()
	if ep.Fingerprint() != fp0 {
		t.Fatalf("epoch fingerprint %#x != index fingerprint %#x", ep.Fingerprint(), fp0)
	}
	ep.Release()

	if _, err := li.ApplyUpdate(ctx, landmarkrd.GraphUpdate{Op: landmarkrd.UpdateAddEdge, S: 0, T: 57, Weight: 1.5}); err != nil {
		t.Fatal(err)
	}
	if li.Fingerprint() != fp0 {
		t.Fatal("patch changed the epoch fingerprint; epoch answers did not change")
	}
	if _, err := li.Rebase(ctx); err != nil {
		t.Fatal(err)
	}
	fp1 := li.Fingerprint()
	if fp1 == fp0 {
		t.Fatal("re-base onto a mutated graph kept the old fingerprint; stale cache entries would be served")
	}
	ep = li.Pin()
	defer ep.Release()
	if ep.Fingerprint() != fp1 || ep.Fingerprint() != ep.Graph().Fingerprint() {
		t.Fatalf("post-rebase epoch fingerprint %#x, want %#x (= graph's)", ep.Fingerprint(), fp1)
	}
}

// TestLiveLandmarksPinnedAcrossRebase: a replica serving a shard subset
// (explicit LiveOptions.Landmarks) must keep exactly those vertices through
// a re-base, or the fleet's shard assignment would silently drift.
func TestLiveLandmarksPinnedAcrossRebase(t *testing.T) {
	g := liveTestGraph(t)
	ctx := context.Background()
	want := []int{3, 41, 77}
	li, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{
		Method:     landmarkrd.AbWalk,
		Batch:      landmarkrd.BatchOptions{Options: landmarkrd.Options{Seed: 5, Walks: 100}},
		PortfolioK: len(want),
		Landmarks:  append([]int(nil), want...),
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		ep := li.Pin()
		defer ep.Release()
		pf := ep.Portfolio()
		if pf == nil {
			t.Fatalf("%s: no portfolio", stage)
		}
		if len(pf.Landmarks) != len(want) {
			t.Fatalf("%s: portfolio has %d landmarks, want %d", stage, len(pf.Landmarks), len(want))
		}
		for i, v := range want {
			if pf.Landmarks[i] != v {
				t.Fatalf("%s: landmark[%d] = %d, want %d", stage, i, pf.Landmarks[i], v)
			}
		}
	}
	check("initial")
	if _, err := li.ApplyUpdate(ctx, landmarkrd.GraphUpdate{Op: landmarkrd.UpdateAddEdge, S: 1, T: 90, Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := li.Rebase(ctx); err != nil {
		t.Fatal(err)
	}
	check("post-rebase")

	// Landmarks without portfolio mode is a configuration error.
	if _, err := landmarkrd.NewLiveIndex(g, landmarkrd.LiveOptions{Landmarks: []int{1}}); err == nil {
		t.Error("Landmarks without PortfolioK accepted")
	}
}
