package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/httpapi"
)

func postUpdate(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, raw
}

// TestUpdateEndpointTable drives /v1/update through the request-validation
// matrix: wrong method, malformed bodies, unknown ops, bad weights,
// impossible vertices, a removal from a pair that carries no conductance,
// and finally a valid add that lands on the patch log.
func TestUpdateEndpointTable(t *testing.T) {
	srv := newTestServer(t, serverConfig{indexMode: "exact", timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed body", "{not json", http.StatusBadRequest, "bad_request"},
		{"missing op", `{"s":0,"t":1}`, http.StatusBadRequest, "bad_request"},
		{"unknown op", `{"op":"toggle","s":0,"t":1}`, http.StatusBadRequest, "bad_request"},
		{"negative weight", `{"op":"add","s":0,"t":30,"weight":-2}`, http.StatusBadRequest, "bad_request"},
		{"out of range s", `{"op":"add","s":-1,"t":1}`, http.StatusUnprocessableEntity, "vertex_out_of_range"},
		{"out of range t", `{"op":"add","s":0,"t":100000}`, http.StatusUnprocessableEntity, "vertex_out_of_range"},
		{"self loop", `{"op":"add","s":4,"t":4}`, http.StatusUnprocessableEntity, "self_loop"},
		{"remove from non-edge", `{"op":"remove","s":5,"t":60,"weight":0.5}`, http.StatusUnprocessableEntity, "exceeds_conductance"},
		{"valid add", `{"op":"add","s":0,"t":37,"weight":0.5}`, http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postUpdate(t, ts.URL, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, raw)
			}
			if tc.code != "" {
				var body httpapi.ErrorBody
				if err := json.Unmarshal(raw, &body); err != nil {
					t.Fatalf("error response not structured: %v (%s)", err, raw)
				}
				if body.Error.Code != tc.code {
					t.Errorf("error code %q, want %q", body.Error.Code, tc.code)
				}
			}
		})
	}

	// Wrong method gets a 405, not a JSON parse error.
	resp, err := http.Get(ts.URL + "/v1/update")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/update: status %d, want 405", resp.StatusCode)
	}

	// The valid add above must be visible as a pending patch and echoed in
	// the response schema.
	if got := srv.live.PendingPatches(); got != 1 {
		t.Errorf("pending patches after one valid add = %d, want 1", got)
	}
	resp2, raw := postUpdate(t, ts.URL, `{"op":"remove","s":0,"t":37,"weight":0.5}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("removing the added edge: status %d (body %s)", resp2.StatusCode, raw)
	}
	var out struct {
		Op      string `json:"op"`
		Epoch   uint64 `json:"epoch"`
		Patches int    `json:"patches"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Op != "remove" || out.Epoch == 0 || out.Patches != 2 {
		t.Errorf("update response = %+v, want op=remove, epoch>0, patches=2", out)
	}
}

// TestUpdateBodyTooLarge: an update body over -max-body gets the same 413
// body_too_large as an oversized batch, and nothing lands on the patch
// stack.
func TestUpdateBodyTooLarge(t *testing.T) {
	srv := newTestServer(t, serverConfig{indexMode: "exact", maxBody: 64, timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, raw := postUpdate(t, ts.URL, `{"op":"add","s":0,"t":37,"weight":0.5,"note":"`+strings.Repeat("x", 64)+`"}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized update: status %d, want 413 (body %s)", resp.StatusCode, raw)
	}
	var body httpapi.ErrorBody
	if err := json.Unmarshal(raw, &body); err != nil || body.Error.Code != "body_too_large" {
		t.Fatalf("413 envelope %s (%v), want code body_too_large", raw, err)
	}
	if got := srv.live.PendingPatches(); got != 0 {
		t.Errorf("oversized update left %d patches on the stack", got)
	}
}

// TestUpdateDisconnectingRejected proves a removal that would cut the graph
// is rejected with 422 and the typed "disconnecting" code, on both the
// indexed and index-free serving paths.
func TestUpdateDisconnectingRejected(t *testing.T) {
	for _, mode := range []string{"exact", "none"} {
		t.Run("index-mode="+mode, func(t *testing.T) {
			b := landmarkrd.NewBuilder(8)
			for i := 0; i < 7; i++ {
				b.AddEdge(i, i+1)
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			srv, err := newQueryServer(g, serverConfig{
				method: landmarkrd.BiPush, seed: 7, indexMode: mode, timeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.routes())
			defer ts.Close()

			resp, raw := postUpdate(t, ts.URL, `{"op":"remove","s":3,"t":4,"weight":1}`)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("bridge removal: status %d, want 422 (body %s)", resp.StatusCode, raw)
			}
			var body httpapi.ErrorBody
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatal(err)
			}
			if body.Error.Code != "disconnecting" {
				t.Errorf("error code %q, want disconnecting", body.Error.Code)
			}
			if got := srv.live.PendingPatches(); got != 0 {
				t.Errorf("rejected update left %d patches on the log", got)
			}
		})
	}
}

// TestUpdateDuringReloadRejected: while a reload is in progress (ready is
// false) updates are refused with 503 so the incoming snapshot stays
// authoritative; queries keep working.
func TestUpdateDuringReloadRejected(t *testing.T) {
	srv := newTestServer(t, serverConfig{indexMode: "exact", timeout: 30 * time.Second})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	srv.ready.Store(false)
	resp, raw := postUpdate(t, ts.URL, `{"op":"add","s":0,"t":37}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update while not ready: status %d, want 503 (body %s)", resp.StatusCode, raw)
	}
	var body httpapi.ErrorBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != "not_ready" {
		t.Errorf("error code %q, want not_ready", body.Error.Code)
	}
	qr, err := http.Get(ts.URL + "/v1/pair?s=0&t=100")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, qr.Body)
	qr.Body.Close()
	if qr.StatusCode != http.StatusOK {
		t.Errorf("query during reload: status %d, want 200", qr.StatusCode)
	}
	srv.ready.Store(true)
	resp, raw = postUpdate(t, ts.URL, `{"op":"add","s":0,"t":37}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("update after reload: status %d, want 200 (body %s)", resp.StatusCode, raw)
	}
}

// scrapeEpoch reads landmarkrd.epoch from /debug/vars. Safe to call from
// any goroutine (errors are returned, not fataled).
func scrapeEpoch(url string) (uint64, error) {
	resp, err := http.Get(url + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var vars struct {
		Epoch   uint64 `json:"landmarkrd.epoch"`
		Patches int    `json:"landmarkrd.patches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, err
	}
	return vars.Epoch, nil
}

// TestUpdateStreamUnderQueries streams edge updates from several writers
// while readers hammer /v1/pair, asserting zero failed requests, a
// monotonically non-decreasing epoch in /debug/vars, and at least one
// background re-base once the patch threshold is crossed. Run with -race
// this doubles as the server-level writer/reader torture test.
func TestUpdateStreamUnderQueries(t *testing.T) {
	srv := newTestServer(t, serverConfig{
		indexMode: "exact", maxInflight: 64, timeout: 30 * time.Second,
		maxPatches: 4,
	})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	if got, err := scrapeEpoch(ts.URL); err != nil || got != 1 {
		t.Fatalf("initial epoch = %d (err %v), want 1", got, err)
	}

	const writers, updatesPerWriter, readers = 3, 8, 4
	var wg sync.WaitGroup
	var failures atomic.Int64
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < updatesPerWriter; i++ {
				s := (w*updatesPerWriter + i) % 150
				body := fmt.Sprintf(`{"op":"add","s":%d,"t":%d,"weight":0.25}`, s, s+31)
				resp, err := http.Post(ts.URL+"/v1/update", "application/json", strings.NewReader(body))
				if err != nil {
					failures.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// 429 is admission control doing its job, not a failure.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					failures.Add(1)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/pair?s=0&t=100")
				if err != nil {
					failures.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				code := resp.StatusCode
				resp.Body.Close()
				if code != http.StatusOK && code != http.StatusTooManyRequests {
					failures.Add(1)
				}
				e, err := scrapeEpoch(ts.URL)
				if err != nil {
					failures.Add(1)
					continue
				}
				if e < last {
					failures.Add(1)
					t.Errorf("epoch went backwards: %d after %d", e, last)
					return
				}
				last = e
			}
		}()
	}

	// Wait for the writers, then stop the readers and drain background
	// re-bases before asserting.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		for {
			time.Sleep(10 * time.Millisecond)
			if srv.metrics.Snapshot().LiveUpdates >= writers*updatesPerWriter {
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	select {
	case <-writersDone:
	case <-time.After(60 * time.Second):
		t.Fatal("writers did not finish")
	}
	close(stop)
	<-done
	srv.live.Quiesce()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed during the update stream, want 0", n)
	}
	snap := srv.metrics.Snapshot()
	if snap.Rebases == 0 {
		t.Errorf("no background re-base despite maxPatches=4 and %d updates", writers*updatesPerWriter)
	}
	if got, err := scrapeEpoch(ts.URL); err != nil || got < 2 {
		t.Errorf("final epoch = %d (err %v), want >= 2 after re-bases", got, err)
	}
	// The served graph must have absorbed the updates after re-base:
	// every streamed add either sits in the patch stack or is folded into
	// the current epoch's base graph.
	ep := srv.live.Pin()
	defer ep.Release()
	folded := int(ep.Graph().M() - loadTestGraph(t).M())
	if folded+srv.live.PendingPatches() != writers*updatesPerWriter {
		t.Errorf("folded %d edges + %d pending patches, want %d total",
			folded, srv.live.PendingPatches(), writers*updatesPerWriter)
	}
}
