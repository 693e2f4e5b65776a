package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// reply holds the fields rdproxy and rdserver put in pair, single-source
// and update replies; each reply fills the ones its endpoint has.
type reply struct {
	S         int       `json:"s"`
	T         int       `json:"t"`
	Value     float64   `json:"value"`
	Degraded  bool      `json:"degraded"`
	Landmark  int       `json:"landmark"`
	Replica   string    `json:"replica"`
	Cache     string    `json:"cache"`
	Failovers int       `json:"failovers"`
	Epoch     uint64    `json:"epoch"`
	ElapsedMS float64   `json:"elapsed_ms"`
	Values    []float64 `json:"values"`
}

// Failure kinds. Every failed op counts against the run; a wrong answer
// (errWrong) also makes the run incorrect.
var (
	errStatus    = errors.New("non-200 status")
	errTransport = errors.New("transport error")
	errWrong     = errors.New("wrong answer")
)

// client issues the benchmark's requests over at most conns connections
// per server and checks every answer.
type client struct {
	http *http.Client
	n    int // vertices of the served graph
}

func newClient(conns, n int) *client {
	return &client{
		http: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
			Timeout: 30 * time.Second,
		},
		n: n,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends o to the server at base and checks the reply.
func (c *client) do(ctx context.Context, base string, o op) (reply, error) {
	var req *http.Request
	var err error
	switch o.Kind {
	case opPair:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/pair?s=%d&t=%d", base, o.S, o.T), nil)
	case opSingleSource:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/singlesource?s=%d", base, o.S), nil)
	case opUpdate:
		kind := "add"
		if o.Remove {
			kind = "remove"
		}
		body, _ := json.Marshal(map[string]any{"op": kind, "s": o.S, "t": o.T, "weight": updateWeight})
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/update", bytes.NewReader(body))
	}
	if err != nil {
		return reply{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("%w: %v", errTransport, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("%w: reading body: %v", errTransport, err)
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%w %d: %.200s", errStatus, resp.StatusCode, body)
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return reply{}, fmt.Errorf("%w: bad body: %v", errWrong, err)
	}
	return r, c.check(o, r)
}

// check validates a 200 reply against the op that asked for it.
func (c *client) check(o op, r reply) error {
	switch o.Kind {
	case opPair:
		if r.S != o.S || r.T != o.T {
			return fmt.Errorf("%w: asked (%d,%d), answered (%d,%d)", errWrong, o.S, o.T, r.S, r.T)
		}
		if !validResistance(r.Value) {
			return fmt.Errorf("%w: r(%d,%d) = %v", errWrong, o.S, o.T, r.Value)
		}
		if r.Degraded {
			return fmt.Errorf("%w: r(%d,%d) answered by the degraded tier", errWrong, o.S, o.T)
		}
	case opSingleSource:
		if len(r.Values) != c.n {
			return fmt.Errorf("%w: single source %d has %d values, want %d", errWrong, o.S, len(r.Values), c.n)
		}
		for t, v := range r.Values {
			if !validResistance(v) {
				return fmt.Errorf("%w: single source r(%d,%d) = %v", errWrong, o.S, t, v)
			}
		}
	case opUpdate:
		if r.Epoch == 0 {
			return fmt.Errorf("%w: update (%d,%d) reports epoch 0", errWrong, o.S, o.T)
		}
	}
	return nil
}

func validResistance(v float64) bool { return v >= 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// ready reports whether base answers /readyz with 200.
func (c *client) ready(ctx context.Context, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// serverVars is what rdload reads from a server's /debug/vars: its engine
// counters (with the solver's CG iterations folded in) and, for a live
// replica, the current epoch and its pending patches.
type serverVars struct {
	Engine  counters `json:"landmarkrd.engine"`
	Solver  counters `json:"landmarkrd.solver"`
	Epoch   uint64   `json:"landmarkrd.epoch"`
	Patches int      `json:"landmarkrd.patches"`
}

func (c *client) vars(ctx context.Context, base string) (serverVars, error) {
	var v serverVars
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/vars", nil)
	if err != nil {
		return v, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("%s/debug/vars: %w", base, err)
	}
	v.Engine.CGIterations += v.Solver.CGIterations
	return v, nil
}

// counters is the subset of an engine's metrics the traced run reads.
type counters struct {
	Queries         int64 `json:"queries"`
	PushOps         int64 `json:"push_ops"`
	WalkSteps       int64 `json:"walk_steps"`
	EstimatorBuilds int64 `json:"estimator_builds"`
	RouterFallbacks int64 `json:"router_fallbacks"`
	ExactFallbacks  int64 `json:"exact_fallbacks"`
	CGIterations    int64 `json:"cg_iterations"`
	QueryTime       struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
	} `json:"query_time_ns"`
}

func (a counters) minus(b counters) counters {
	a.Queries -= b.Queries
	a.PushOps -= b.PushOps
	a.WalkSteps -= b.WalkSteps
	a.EstimatorBuilds -= b.EstimatorBuilds
	a.RouterFallbacks -= b.RouterFallbacks
	a.ExactFallbacks -= b.ExactFallbacks
	a.CGIterations -= b.CGIterations
	a.QueryTime.Count -= b.QueryTime.Count
	a.QueryTime.Sum -= b.QueryTime.Sum
	return a
}

func (a counters) plus(b counters) counters {
	a.Queries += b.Queries
	a.PushOps += b.PushOps
	a.WalkSteps += b.WalkSteps
	a.EstimatorBuilds += b.EstimatorBuilds
	a.RouterFallbacks += b.RouterFallbacks
	a.ExactFallbacks += b.ExactFallbacks
	a.CGIterations += b.CGIterations
	a.QueryTime.Count += b.QueryTime.Count
	a.QueryTime.Sum += b.QueryTime.Sum
	return a
}

// joinInts renders vertices as the comma list rdserver -landmarks takes.
func joinInts(vs []int) string {
	var b []byte
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// baseURL is the URL a server listening on the loopback port is reached at.
func baseURL(port int) string {
	return (&url.URL{Scheme: "http", Host: "127.0.0.1:" + strconv.Itoa(port)}).String()
}
