package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	landmarkrd "landmarkrd"
)

// pairServer answers /v1/pair with r = 1 for any pair.
func pairServer(t *testing.T, h func(w http.ResponseWriter, r *http.Request) bool) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h != nil && h(w, r) {
			return
		}
		fmt.Fprintf(w, `{"s":%s,"t":%s,"value":1}`, r.URL.Query().Get("s"), r.URL.Query().Get("t"))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestLatencyCountsFromTheDueTime stalls the first request 200 ms on the
// only connection: the requests queued behind it must be charged the wait.
func TestLatencyCountsFromTheDueTime(t *testing.T) {
	var calls atomic.Int32
	srv := pairServer(t, func(http.ResponseWriter, *http.Request) bool {
		if calls.Add(1) == 1 {
			time.Sleep(200 * time.Millisecond)
		}
		return false
	})
	c := newClient(1, 10)
	defer c.close()
	ops := []op{
		{Due: 0, S: 1, T: 2},
		{Due: 20 * time.Millisecond, S: 1, T: 3},
		{Due: 40 * time.Millisecond, S: 1, T: 4},
	}
	samples, _ := openLoop(context.Background(), ops, 1, func(ctx context.Context, o op) (reply, error) {
		return c.do(ctx, srv.URL, o)
	})
	if len(samples) != len(ops) {
		t.Fatalf("%d samples for %d ops", len(samples), len(ops))
	}
	for i, s := range samples {
		if s.err != nil {
			t.Fatalf("op %d: %v", i, s.err)
		}
		// Each request waits for the stall to end at about 200 ms after
		// the first was due, whatever its own due time.
		if want := 200*time.Millisecond - s.op.Due; s.latency() < want-5*time.Millisecond {
			t.Errorf("op %d due at %v: latency %v, want at least %v", i, s.op.Due, s.latency(), want)
		}
		if s.start < s.sent || s.sent < s.op.Due {
			t.Errorf("op %d: due %v, sent %v, started %v out of order", i, s.op.Due, s.sent, s.start)
		}
	}
	if samples[1].start < 190*time.Millisecond {
		t.Errorf("op 1 started at %v, before the stalled request finished", samples[1].start)
	}
}

// TestFailuresCountAndMissTheSLO drives one pair against each kind of
// failure: each must count as failed and as a miss of the latency limit,
// and a wrong answer must also make the run incorrect.
func TestFailuresCountAndMissTheSLO(t *testing.T) {
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	for _, c := range []struct {
		name  string
		body  func(w http.ResponseWriter)
		url   string
		kind  error
		wrong bool
	}{
		{"429", func(w http.ResponseWriter) { w.WriteHeader(http.StatusTooManyRequests) }, "", errStatus, false},
		{"5xx", func(w http.ResponseWriter) { w.WriteHeader(http.StatusServiceUnavailable) }, "", errStatus, false},
		{"transport", nil, closed.URL, errTransport, false},
		{"bad JSON", func(w http.ResponseWriter) { fmt.Fprint(w, `{"s":1,"t":2,"value":`) }, "", errWrong, true},
		{"non-finite", func(w http.ResponseWriter) { fmt.Fprint(w, `{"s":1,"t":2,"value":1e999}`) }, "", errWrong, true},
		{"negative", func(w http.ResponseWriter) { fmt.Fprint(w, `{"s":1,"t":2,"value":-0.5}`) }, "", errWrong, true},
		{"wrong pair", func(w http.ResponseWriter) { fmt.Fprint(w, `{"s":1,"t":3,"value":0.5}`) }, "", errWrong, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			url := c.url
			if url == "" {
				url = pairServer(t, func(w http.ResponseWriter, _ *http.Request) bool { c.body(w); return true }).URL
			}
			good := pairServer(t, nil)
			cl := newClient(1, 10)
			defer cl.close()
			ops := []op{{S: 1, T: 2}, {S: 1, T: 2}}
			var n atomic.Int32
			samples, _ := openLoop(context.Background(), ops, 1, func(ctx context.Context, o op) (reply, error) {
				if n.Add(1) == 1 {
					return cl.do(ctx, url, o)
				}
				return cl.do(ctx, good.URL, o)
			})
			if !errors.Is(samples[0].err, c.kind) {
				t.Fatalf("err %v, want %v", samples[0].err, c.kind)
			}
			r := &runner{w: workload{sloMS: 1e9}, res: &result{}}
			ph := phase{samples: samples}
			g := new(landmarkrd.Graph)
			r.account(&ph, func(sample) *landmarkrd.Graph { return g })
			if ph.failed != 1 || ph.attempted != 2 || ph.pairs != 2 || ph.sloMet != 1 {
				t.Errorf("failed %d of %d, SLO met by %d of %d pairs; want 1 of 2 and 1 of 2", ph.failed, ph.attempted, ph.sloMet, ph.pairs)
			}
			if r.wrong != c.wrong {
				t.Errorf("wrong answer recorded: %v, want %v", r.wrong, c.wrong)
			}
			if len(ph.answers) != 1 {
				t.Errorf("%d answers kept for the truth pass, want only the good one", len(ph.answers))
			}
		})
	}
}

func TestClosedLoopChargesEachCallFromThePreviousEnd(t *testing.T) {
	samples, _, err := closedLoop(context.Background(), 50*time.Millisecond, func(context.Context, int) error {
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 3 || len(samples) > 6 {
		t.Fatalf("%d calls of 10 ms in 50 ms", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].op.Due != samples[i-1].end {
			t.Errorf("call %d due at %v, previous ended at %v", i, samples[i].op.Due, samples[i-1].end)
		}
		if samples[i].latency() < 10*time.Millisecond {
			t.Errorf("call %d latency %v, below its 10 ms", i, samples[i].latency())
		}
	}
}
