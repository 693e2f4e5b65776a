package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

var liveTraffic = traffic{rate: 50, pool: 1000, zipfS: 1.1, ssShare: 0.1, updShare: 0.2}

func TestSchedulesRepeatForASeedAndDifferAcrossSeeds(t *testing.T) {
	span := 20 * time.Second
	gens := map[string]func(seed uint64) any{
		"poisson": func(seed uint64) any { return poissonArrivals(newRand(seed, "arrivals"), 100, span) },
		"zipf": func(seed uint64) any {
			z, rng := newZipf(1000, 1.1), newRand(seed, "zipf")
			ranks := make([]int, 500)
			for i := range ranks {
				ranks[i] = z.rank(rng)
			}
			return ranks
		},
		"op mix": func(seed uint64) any { return schedule(seed, 5000, liveTraffic, span, []int{3, 7}) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: two draws with seed 1 differ", name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 give the same draws", name)
		}
	}
}

func TestPoissonRate(t *testing.T) {
	due := poissonArrivals(newRand(7, "arrivals"), 100, 100*time.Second)
	if n := float64(len(due)); math.Abs(n-10000) > 400 { // 4 standard deviations
		t.Errorf("%v arrivals in 100 s at 100/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] || due[i] >= 100*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, due[i], due[i-1])
		}
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z, rng := newZipf(50000, 1.1), newRand(1, "zipf")
	top := 0
	for i := 0; i < 10000; i++ {
		if z.rank(rng) == 0 {
			top++
		}
	}
	// P(rank 0) = 1/H(50000, 1.1) ≈ 0.139; allow four standard deviations.
	if top < 1250 || top > 1530 {
		t.Errorf("rank 0 drawn %d times in 10000, want about 1390", top)
	}
}

// TestScheduleUpdatesNeverRemoveBaseEdges checks the update stream's
// contract: a removal takes back an edge rdload added at least removeAfter
// earlier and has not removed since, so the graph stays connected.
func TestScheduleUpdatesNeverRemoveBaseEdges(t *testing.T) {
	ops := schedule(3, 5000, liveTraffic, 60*time.Second, []int{3, 7})
	added := map[pair][]time.Duration{}
	counts := map[opKind]int{}
	removes := 0
	for _, o := range ops {
		counts[o.Kind]++
		switch {
		case o.Kind == opPair && (o.S == o.T || o.S == 3 || o.T == 3 || o.S == 7 || o.T == 7):
			t.Fatalf("pair op %+v touches an avoided vertex or repeats one", o)
		case o.Kind == opUpdate && !o.Remove:
			added[pair{o.S, o.T}] = append(added[pair{o.S, o.T}], o.Due)
		case o.Kind == opUpdate:
			removes++
			ds := added[pair{o.S, o.T}]
			if len(ds) == 0 || o.Due-ds[0] < removeAfter {
				t.Fatalf("removal %+v takes back no edge added %v earlier", o, removeAfter)
			}
			added[pair{o.S, o.T}] = ds[1:]
		}
	}
	if removes == 0 {
		t.Error("no removals in a minute of updates")
	}
	total := float64(len(ops))
	for kind, share := range map[opKind]float64{opPair: 0.7, opSingleSource: 0.1, opUpdate: 0.2} {
		if got := float64(counts[kind]) / total; math.Abs(got-share) > 0.03 {
			t.Errorf("%v share %.3f, want %.2f", kind, got, share)
		}
	}
}
