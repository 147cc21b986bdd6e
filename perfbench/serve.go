package main

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/serve"
	"dtexl/internal/serve/client"
	"dtexl/internal/trace"
)

const serveScale = 4

// spanHeader carries the benchmark span that caused an HTTP request, so
// the server-side span can name its parent.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// tagTransport stamps each request with its causing span and counts the
// attempts (a retried call makes more than one). Traced runs only.
type tagTransport struct {
	base  http.RoundTripper
	trips *atomic.Int64
}

func (t *tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(int64); ok {
		t.trips.Add(1)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(req)
}

// spanHandler records a span named by name(r) around every request h
// serves that names its causing span in the header; set-up traffic
// carries none and is not traced.
func spanHandler(rec *recorder, name func(*http.Request) string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		_, end := rec.begin(name(r), parent, parent)
		h.ServeHTTP(w, r)
		end()
	})
}

// serveEnv is one fresh service on a loopback listener with its two
// closed-loop clients, as dtexld's callers see it.
type serveEnv struct {
	srv        *serve.Server
	hs         *httptest.Server
	clients    []*client.Client
	transports []*http.Transport
	rec        *recorder
	trips      atomic.Int64

	mu      sync.Mutex
	elapsed map[int64]float64 // traced: request span → response elapsed_ms
}

func newServe(scale int, seed uint64, rec *recorder) *serveEnv {
	e := &serveEnv{rec: rec, elapsed: map[int64]float64{}}
	e.srv = serve.New(serve.Config{Scale: scale, Seed: seed, Concurrency: workers})
	h := e.srv.Handler()
	if rec != nil {
		h = spanHandler(rec, func(*http.Request) string { return "serve.handler" }, h)
	}
	e.hs = httptest.NewServer(h)
	for i := 0; i < workers; i++ {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		var rt http.RoundTripper = tr
		if rec != nil {
			rt = &tagTransport{base: tr, trips: &e.trips}
		}
		e.transports = append(e.transports, tr)
		e.clients = append(e.clients, client.New(e.hs.URL, client.WithHTTP(&http.Client{Transport: rt})))
	}
	return e
}

func (e *serveEnv) close() {
	e.hs.Close()
	for _, tr := range e.transports {
		tr.CloseIdleConnections()
	}
	e.srv.Abort()
}

// call sends one request on client ci and returns its latency; traced
// calls are spans.
func (e *serveEnv) call(ctx context.Context, ci int, c cell, traced bool) (time.Duration, *serve.SimResponse, error) {
	var rec *recorder
	if traced {
		rec = e.rec
	}
	id, end := rec.begin("bench.request", 0, 0)
	if rec != nil {
		ctx = context.WithValue(ctx, spanKey{}, id)
	}
	t0 := time.Now()
	resp, err := e.clients[ci].Simulate(ctx, serve.SimRequest{Benchmark: c.Bench, Policy: c.Policy})
	d := time.Since(t0)
	end()
	if err == nil && rec != nil {
		e.mu.Lock()
		e.elapsed[id] = resp.ElapsedMS
		e.mu.Unlock()
	}
	return d, resp, err
}

// closedLoop runs one goroutine per client; each sends its next request
// only after the previous reply, until body returns false.
func closedLoop(body func(ci int) bool) {
	var wg sync.WaitGroup
	for ci := 0; ci < workers; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for body(ci) {
			}
		}(ci)
	}
	wg.Wait()
}

// serveRun is the per-run state both serving workloads share.
type serveRun struct {
	b        *run
	scale    int
	vars     variants
	requests atomic.Int64 // traced requests sent
}

// setUp builds a fresh service and sends cells through it once — the
// priming or warming — booking the set-up time and the requests.
func (s *serveRun) setUp(ctx context.Context, cells []cell, traced bool) *serveEnv {
	t0 := time.Now()
	e := newServe(s.scale, s.b.cfg.seed, s.b.recOf(traced))
	_, failed := s.send(ctx, e, cells, false)
	s.b.setup(time.Since(t0))
	s.b.attempted += len(cells)
	s.b.failed += failed
	return e
}

// send runs the cells through the two clients once each, in order,
// booking latencies and responses; it returns the latencies and the
// number of failed calls.
func (s *serveRun) send(ctx context.Context, e *serveEnv, order []cell, traced bool) ([]time.Duration, int) {
	var (
		next   atomic.Int64
		failed atomic.Int64
		lats   = make([][]time.Duration, workers)
	)
	closedLoop(func(ci int) bool {
		i := int(next.Add(1)) - 1
		if i >= len(order) {
			return false
		}
		d, ok := s.one(ctx, e, ci, order[i], traced)
		if !ok {
			failed.Add(1)
		}
		lats[ci] = append(lats[ci], d)
		return true
	})
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	return all, int(failed.Load())
}

// one sends one request and books its response for the output check.
func (s *serveRun) one(ctx context.Context, e *serveEnv, ci int, c cell, traced bool) (time.Duration, bool) {
	d, resp, err := e.call(ctx, ci, c, traced)
	if traced {
		s.requests.Add(1)
	}
	if err != nil {
		return d, false
	}
	got := countersOf(resp.Metrics)
	if s.b.cfg.corrupt {
		got.Cycles++
	}
	s.vars.add(c, got)
	return d, true
}

// readyz books the server's admission counters after a round: shed
// requests were retried by the client, so they count as failed ops.
func (s *serveRun) readyz(ctx context.Context, e *serveEnv, traced bool) error {
	st, _, err := e.clients[0].Ready(ctx)
	if err != nil {
		return err
	}
	shed := st.Full.Shed + st.Degraded.Shed
	s.b.failed += int(shed)
	if traced {
		s.b.mean("serve.coalesced", float64(st.Coalesced))
		s.b.mean("serve.shed", float64(shed))
		s.b.mean("serve.sims_computed", float64(st.SimsComputed))
	}
	return nil
}

// finish judges every booked response against the committed digests
// (or, for other seeds, a direct Runner over the same cells) and books
// the traced run's serve-layer metrics.
func (s *serveRun) finish(cells []cell, traces []*serveEnv) error {
	b := s.b
	d, err := loadDigests()
	if err != nil {
		return err
	}
	var want func(cell, counters) bool
	if committed, ok := d.Cells[digestKey(s.scale, b.cfg.seed)]; ok {
		want = func(c cell, got counters) bool { return committed[c.String()] == got.digest() }
	} else {
		ref, err := referenceCounters(scaledOptions(s.scale, b.cfg.seed), cells)
		if err != nil {
			return err
		}
		want = func(c cell, got counters) bool { r, ok := ref[c]; return ok && r.equal(got) }
	}
	b.failed += s.vars.wrong(want)
	if b.rec == nil {
		return nil
	}
	var tot totals
	for _, c := range cells {
		if vs := s.vars.byID[c]; len(vs) > 0 {
			tot.add(vs[0].c)
		}
	}
	tot.put(b.layer)
	var trips int64
	elapsed := map[int64]float64{}
	for _, e := range traces {
		trips += e.trips.Load()
		for k, v := range e.elapsed {
			elapsed[k] = v
		}
	}
	b.layer["serve.client_retries"] = float64(trips - s.requests.Load())
	spans := b.rec.snapshot()
	handler := map[int64]int64{}
	for _, sp := range spans {
		if sp.Name == "serve.handler" {
			handler[sp.Parent] += sp.dur()
		}
	}
	var n, hSum, runSum, reqSum float64
	for _, sp := range spans {
		run, ok := elapsed[sp.ID]
		if sp.Name != "bench.request" || !ok {
			continue
		}
		n++
		hSum += float64(handler[sp.ID]) / 1e6
		runSum += run
		reqSum += float64(sp.dur()) / 1e6
	}
	if n > 0 {
		b.layer["serve.handler_ms"] = hSum / n
		b.layer["serve.run_ms"] = runSum / n
		b.layer["serve.encode_ms"] = (hSum - runSum) / n
		b.layer["serve.transport_ms"] = (reqSum - hSum) / n
	}
	return nil
}

// shuffled returns a seeded permutation of cells.
func shuffled(cells []cell, seed int64) []cell {
	out := append([]cell(nil), cells...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// roundSeed derives a request-order seed from the benchmark seed, the
// round and the client.
func roundSeed(seed uint64, round, client int) int64 {
	return int64(seed)*1_000_003 + int64(round)*101 + int64(client)
}

// runServeCold is serve-cold: a fresh server per round, primed with one
// cell per benchmark in set-up (scene generation and frame preparation),
// then the other 200 cells once each in a seeded order — per-request
// compute latency as dtexld users see it.
func runServeCold(ctx context.Context, b *run) error {
	s := &serveRun{b: b, scale: b.cfg.scaleOr(serveScale)}
	all := serveCells()
	var prime, rest []cell
	for _, c := range all {
		if c.Policy == core.Baseline().Name {
			prime = append(prime, c)
		} else {
			rest = append(rest, c)
		}
	}
	var traced []*serveEnv
	round := 0
	err := b.rounds(func(tr bool) error {
		e := s.setUp(ctx, prime, tr)
		defer e.close()
		order := shuffled(rest, roundSeed(b.cfg.seed, round, 0))
		round++
		m0 := startMem()
		start := time.Now()
		lat, failed := s.send(ctx, e, order, tr)
		busy := time.Since(start)
		if tr {
			b.endMem(m0)
			traced = append(traced, e)
		}
		b.done(len(order)-failed, busy, busy, lat)
		b.attempted += len(order)
		b.failed += failed
		return s.readyz(ctx, e, tr)
	})
	if err != nil {
		return err
	}
	return s.finish(all, traced)
}

// hotCells are the 30 cells serve-hot keeps warm: every benchmark under
// the three reference policies.
func hotCells() []cell {
	var cs []cell
	for _, bench := range trace.Aliases() {
		for _, p := range []string{core.Baseline().Name, core.BaselineDecoupled().Name, core.DTexL().Name} {
			cs = append(cs, cell{bench, p})
		}
	}
	return cs
}

// runServeHot is serve-hot: set-up warms 30 cells, then two clients
// cycle them for a thirty-second of the window. Every request is a memo hit, so
// HTTP, JSON, coalescer, admission and memo lookup are all the work.
func runServeHot(ctx context.Context, b *run) error {
	s := &serveRun{b: b, scale: b.cfg.scaleOr(serveScale)}
	cells := hotCells()
	// Short rounds: many set-up samples, and each round still serves
	// thousands of requests, enough for a p99.
	slice := max(b.cfg.window/32, 250*time.Millisecond)
	var traced []*serveEnv
	round := 0
	err := b.rounds(func(tr bool) error {
		e := s.setUp(ctx, cells, tr)
		defer e.close()
		orders := make([][]cell, workers)
		for ci := range orders {
			orders[ci] = shuffled(cells, roundSeed(b.cfg.seed, round, ci))
		}
		round++
		var (
			sent   = make([]int, workers)
			lats   = make([][]time.Duration, workers)
			failed atomic.Int64
		)
		m0 := startMem()
		start := time.Now()
		deadline := start.Add(slice)
		closedLoop(func(ci int) bool {
			if time.Now().After(deadline) {
				return false
			}
			c := orders[ci][sent[ci]%len(cells)]
			sent[ci]++
			d, ok := s.one(ctx, e, ci, c, tr)
			if !ok {
				failed.Add(1)
			}
			lats[ci] = append(lats[ci], d)
			return true
		})
		busy := time.Since(start)
		var lat []time.Duration
		n := 0
		for ci := range lats {
			lat = append(lat, lats[ci]...)
			n += sent[ci]
		}
		ok := n - int(failed.Load())
		if tr {
			b.endMem(m0)
			traced = append(traced, e)
		}
		// A sweep is serving the 30 warm cells once at this round's rate.
		var sweep time.Duration
		if ok > 0 {
			sweep = busy * time.Duration(len(cells)) / time.Duration(ok)
		}
		b.done(ok, busy, sweep, lat)
		b.attempted += n
		b.failed += int(failed.Load())
		return s.readyz(ctx, e, tr)
	})
	if err != nil {
		return err
	}
	return s.finish(cells, traced)
}
