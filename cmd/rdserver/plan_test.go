package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	landmarkrd "landmarkrd"
)

// TestAutoPlanServed: -method defaults to auto, the serving epoch's plan
// is published as landmarkrd.plan in /debug/vars, and a /v1/pair reply's
// "method" names the path that answered (exact on the grid, bipush on a
// BA(5000,4) hub graph), never "auto". Under load shedding the exact plan
// still answers exactly, while a bipush epoch's reply names the degraded
// tier.
func TestAutoPlanServed(t *testing.T) {
	ba, err := landmarkrd.BarabasiAlbert(5000, 4, 2023)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *landmarkrd.Graph
		want string
		shed string // the reply's method under load shedding
	}{
		{"grid", loadTestGraph(t), "exact", "exact"},
		{"ba", ba, "bipush", degradedMethod},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := parseFlags([]string{"-graph", corpusGraph, "-timeout", "30s", "-max-inflight", "4"})
			if err != nil {
				t.Fatal(err)
			}
			if cfg.server.method != landmarkrd.Auto {
				t.Fatalf("default -method %v, want auto", cfg.server.method)
			}
			srv, err := newQueryServer(c.g, cfg.server)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.routes())
			defer ts.Close()

			type pairReply struct {
				Value    float64
				Method   string
				Degraded bool
			}
			var pair pairReply
			getJSON(t, ts.URL+"/v1/pair?s=17&t=150", &pair)
			if pair.Method != c.want || pair.Degraded {
				t.Errorf("reply %+v, want method %q, not degraded", pair, c.want)
			}
			want, err := landmarkrd.Exact(c.g, 17, 150)
			if err != nil {
				t.Fatal(err)
			}
			if c.want == "exact" && math.Float64bits(pair.Value) != math.Float64bits(want) {
				t.Errorf("exact-plan reply %v != Exact %v", pair.Value, want)
			}
			// The reversed pair gets the same bits, from the engine and
			// from Exact.
			var rev pairReply
			getJSON(t, ts.URL+"/v1/pair?s=150&t=17", &rev)
			wantRev, err := landmarkrd.Exact(c.g, 150, 17)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(wantRev) != math.Float64bits(want) {
				t.Errorf("Exact(150,17) = %v != Exact(17,150) = %v", wantRev, want)
			}
			if c.want == "exact" && math.Float64bits(rev.Value) != math.Float64bits(want) {
				t.Errorf("exact-plan reply for (150,17) %v != Exact %v", rev.Value, want)
			}

			// Occupy 3 of 4 admission slots: with its own slot the next
			// request hits the load-shedding threshold.
			for i := 0; i < 3; i++ {
				if !srv.api.TryAcquire() {
					t.Fatal("admission slot not free")
				}
			}
			var shed pairReply
			getJSON(t, ts.URL+"/v1/pair?s=17&t=150", &shed)
			for i := 0; i < 3; i++ {
				srv.api.Release()
			}
			if shed.Method != c.shed || shed.Degraded != (c.shed == degradedMethod) {
				t.Errorf("load-shed reply %+v, want method %q", shed, c.shed)
			}
			if c.shed == "exact" && math.Float64bits(shed.Value) != math.Float64bits(want) {
				t.Errorf("load-shed exact-plan reply %v != Exact %v", shed.Value, want)
			}

			var vars struct {
				Plan landmarkrd.Plan `json:"landmarkrd.plan"`
			}
			getJSON(t, ts.URL+"/debug/vars", &vars)
			if vars.Plan != srv.eng().Plan() || vars.Plan.Path != c.want || vars.Plan.PilotPairs == 0 {
				t.Errorf("/debug/vars plan %+v, engine plan %+v, want path %s", vars.Plan, srv.eng().Plan(), c.want)
			}
		})
	}
}

// TestParseFlagsMethod: -method takes every name ParseMethod knows and
// rejects the rest (exact is rdquery's alone) as a flag error.
func TestParseFlagsMethod(t *testing.T) {
	for _, m := range []landmarkrd.Method{landmarkrd.AbWalk, landmarkrd.Push, landmarkrd.BiPush, landmarkrd.Auto} {
		cfg, err := parseFlags([]string{"-method", m.String()})
		if err != nil || cfg.server.method != m {
			t.Errorf("-method %s: method %v, err %v", m, cfg.server.method, err)
		}
	}
	for _, bad := range []string{"exact", "bogus"} {
		if _, err := parseFlags([]string{"-method", bad}); err == nil {
			t.Errorf("-method %s accepted", bad)
		}
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
