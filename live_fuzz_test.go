package landmarkrd

// FuzzEpochUpdateStream drives the epoch-versioned live index through a
// fuzz-decoded stream of edge insertions, removals, fresh queries, and
// explicit re-bases, mirroring every mutation into a plain edge-weight map
// and cross-checking each query against a cold exact solve on the mirrored
// graph. The differential oracle catches fresh-read drift and re-base
// replay bugs; the structural assertions catch epoch-protocol violations
// (non-monotone sequence numbers, patches surviving a re-base, spurious
// disconnection errors).

import (
	"context"
	"errors"
	"math"
	"testing"
)

// liveFuzzMaxOps bounds each execution so the fuzzer measures coverage,
// not CG patience: every query costs a CG solve and every re-base a full
// index rebuild.
const liveFuzzMaxOps = 16

func FuzzEpochUpdateStream(f *testing.F) {
	seedCorpus(f, func(data []byte) {
		// One op stream exercising all four verbs: add, query, remove,
		// re-base, query again.
		f.Add(data, []byte{0, 2, 9, 12, 2, 0, 9, 0, 1, 2, 9, 0, 3, 0, 0, 0, 2, 1, 7, 0}, uint64(7))
	})
	f.Fuzz(func(t *testing.T, data, ops []byte, seed uint64) {
		g, ok := fuzzGraph(data)
		if !ok || g.N() < 3 || g.N() > 96 {
			t.Skip()
		}
		// Conditioning guard, tighter than FuzzDynamicDifferential's: every
		// re-base op rebuilds a full exact index (n grounded CG solves), so
		// ill-conditioned inputs both swamp the differential comparison and
		// stall the fuzzer on CG iteration counts.
		minW, maxW := math.Inf(1), 0.0
		g.ForEachEdge(func(_, _ int32, w float64) {
			minW = math.Min(minW, w)
			maxW = math.Max(maxW, w)
		})
		if maxW/minW > 1e6 {
			t.Skip()
		}
		li, err := NewLiveIndex(g, LiveOptions{
			Method: BiPush,
			Batch:  BatchOptions{Options: Options{Seed: seed}},
			Mode:   DiagExactCG,
			// Explicit re-base ops only: auto triggers would make the
			// patch-stack assertions below nondeterministic.
			MaxPatches:       -1,
			MaxPatchOverhead: -1,
		})
		if err != nil {
			if !errors.Is(err, ErrDisconnected) {
				t.Fatalf("NewLiveIndex: unexpected error %v", err)
			}
			return
		}
		// mirror tracks the true edge weights under the applied stream.
		type pair struct{ a, b int }
		mirror := map[pair]float64{}
		g.ForEachEdge(func(u, v int32, w float64) {
			a, b := int(u), int(v)
			if a > b {
				a, b = b, a
			}
			mirror[pair{a, b}] += w
		})
		buildMirror := func() (*Graph, error) {
			b := NewBuilder(g.N())
			for e, w := range mirror {
				b.AddWeightedEdge(e.a, e.b, w)
			}
			return b.Build()
		}
		// applied records live adds eligible for removal: removing only
		// previously-added conductance can never disconnect (the base edges
		// all survive), so ErrDisconnecting is a bug when it fires here.
		type applied struct {
			a, b int
			w    float64
		}
		var removable []applied

		ctx := context.Background()
		lastEpoch := li.Epoch()
		n := g.N()
		steps := 0
		for i := 0; i+4 <= len(ops) && steps < liveFuzzMaxOps; i += 4 {
			steps++
			op, aRaw, bRaw, extra := ops[i], ops[i+1], ops[i+2], ops[i+3]
			switch op % 4 {
			case 0: // add edge
				a, b := int(aRaw)%n, int(bRaw)%n
				if a == b {
					continue
				}
				w := 0.5 + float64(extra%16)/10 // [0.5, 2.0]
				res, err := li.ApplyUpdate(ctx, GraphUpdate{Op: UpdateAddEdge, S: a, T: b, Weight: w})
				if err != nil {
					t.Fatalf("op %d: add (%d,%d,%v): %v", steps, a, b, w, err)
				}
				if res.Epoch < lastEpoch {
					t.Fatalf("op %d: epoch went backwards: %d after %d", steps, res.Epoch, lastEpoch)
				}
				lastEpoch = res.Epoch
				if a > b {
					a, b = b, a
				}
				mirror[pair{a, b}] += w
				removable = append(removable, applied{a, b, w})
			case 1: // remove a previously-added conductance
				if len(removable) == 0 {
					continue
				}
				j := int(extra) % len(removable)
				ed := removable[j]
				removable = append(removable[:j], removable[j+1:]...)
				_, err := li.ApplyUpdate(ctx, GraphUpdate{Op: UpdateRemoveEdge, S: ed.a, T: ed.b, Weight: ed.w})
				if err != nil {
					// Never legitimate: the base graph is intact underneath.
					t.Fatalf("op %d: removing previously-added (%d,%d,%v): %v", steps, ed.a, ed.b, ed.w, err)
				}
				mirror[pair{ed.a, ed.b}] -= ed.w
				if mirror[pair{ed.a, ed.b}] <= 0 {
					delete(mirror, pair{ed.a, ed.b})
				}
			case 2: // fresh query vs cold oracle on the mirrored graph
				s, u := int(aRaw)%n, int(bRaw)%n
				ep := li.Pin()
				got, err := ep.FreshPairContext(ctx, s, u)
				ep.Release()
				if err != nil {
					t.Fatalf("op %d: FreshPair(%d,%d): %v", steps, s, u, err)
				}
				checkEstimate(t, "FreshPairContext", got)
				mg, err := buildMirror()
				if err != nil {
					t.Fatalf("op %d: building mirror graph: %v", steps, err)
				}
				want, err := Exact(mg, s, u)
				if err != nil {
					t.Fatalf("op %d: exact oracle on mirror: %v", steps, err)
				}
				if diff := math.Abs(got - want); diff > 1e-6*math.Max(1, want) {
					t.Fatalf("op %d: fresh r(%d,%d) = %v, oracle = %v (diff %g, %d patches)",
						steps, s, u, got, want, diff, li.PendingPatches())
				}
			case 3: // explicit re-base
				before := li.Epoch()
				seq, err := li.Rebase(ctx)
				if err != nil {
					t.Fatalf("op %d: rebase: %v", steps, err)
				}
				if seq < before {
					t.Fatalf("op %d: rebase published epoch %d after %d", steps, seq, before)
				}
				lastEpoch = seq
				if got := li.PendingPatches(); got != 0 {
					t.Fatalf("op %d: %d patches survived the re-base", steps, got)
				}
			}
		}
		// Final invariant: after folding everything, one more re-base must
		// land on a graph identical in resistance to the mirror.
		if li.PendingPatches() > 0 {
			if _, err := li.Rebase(ctx); err != nil {
				t.Fatalf("final rebase: %v", err)
			}
		}
		ep := li.Pin()
		defer ep.Release()
		if ep.Graph().N() != g.N() {
			t.Fatalf("re-based graph has %d vertices, want %d", ep.Graph().N(), g.N())
		}
	})
}
