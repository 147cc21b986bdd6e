package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/sim"
)

// testConfig sizes the server small and slow-to-overload: one slot, one
// waiting-room position, scale-8 cells. Admission capacity is exactly 2
// in-flight requests; everything beyond that must shed or degrade.
func testConfig() Config {
	return Config{
		Scale:       8,
		Seed:        1,
		Concurrency: 1,
		QueueDepth:  1,
		CellBudget:  time.Minute,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one SimRequest and decodes either body shape.
func post(t *testing.T, url string, req SimRequest) (int, *SimResponse, *ErrorResponse, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	hres, err := http.Post(url+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/simulate: %v", err)
	}
	defer hres.Body.Close()
	if hres.StatusCode == http.StatusOK {
		var out SimResponse
		if err := json.NewDecoder(hres.Body).Decode(&out); err != nil {
			t.Fatalf("bad 200 body: %v", err)
		}
		return hres.StatusCode, &out, nil, hres.Header
	}
	var eres ErrorResponse
	if err := json.NewDecoder(hres.Body).Decode(&eres); err != nil {
		t.Fatalf("status %d with undecodable body: %v", hres.StatusCode, err)
	}
	return hres.StatusCode, nil, &eres, hres.Header
}

// --- admission lane unit tests ---

func TestLaneAdmitSheds(t *testing.T) {
	l := newLane(1, 1)
	rel1, err := l.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Second occupant parks in the waiting room (cancellably).
	queued := make(chan error, 1)
	go func() {
		rel2, err := l.admit(context.Background())
		if err == nil {
			defer rel2()
		}
		queued <- err
	}()
	// Wait until it holds the queue token so the third attempt is
	// deterministic.
	for i := 0; l.waiting.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if _, err := l.admit(context.Background()); err != ErrOverCapacity {
		t.Fatalf("third admit err = %v, want ErrOverCapacity", err)
	}
	if got := l.shed.Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	rel1()
	if err := <-queued; err != nil {
		t.Fatalf("queued admit failed after release: %v", err)
	}
}

func TestLaneAdmitCancelWhileQueued(t *testing.T) {
	l := newLane(1, 1)
	rel, err := l.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := l.admit(ctx); err != context.DeadlineExceeded {
		t.Fatalf("queued admit err = %v, want DeadlineExceeded", err)
	}
	// The cancelled waiter must have freed its queue position: a new
	// arrival can park again instead of shedding.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if _, err := l.admit(ctx2); err != context.DeadlineExceeded {
		t.Fatalf("re-queued admit err = %v, want DeadlineExceeded (queue position leaked?)", err)
	}
}

func TestRetryAfterEstimate(t *testing.T) {
	l := newLane(2, 4)
	if got := l.retryAfter(time.Minute); got != time.Second {
		t.Errorf("idle lane retryAfter = %v, want the 1s floor", got)
	}
	l.active.Store(2)
	l.waiting.Store(4)
	// 6 occupants through 2 slots = 3 budget rounds.
	if got := l.retryAfter(time.Minute); got != 3*time.Minute {
		t.Errorf("full lane retryAfter = %v, want 3m", got)
	}
}

// --- HTTP contract ---

func TestSimulateMatchesDirectRunner(t *testing.T) {
	cfg := testConfig()
	_, ts := newTestServer(t, cfg)
	status, res, _, _ := post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "DTexL"})
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if res.Metrics == nil || res.Metrics.Cycles <= 0 || res.Scale != cfg.Scale || res.Degraded {
		t.Fatalf("malformed response: %+v", res)
	}

	// The service must return bit-identical metrics to a direct Runner at
	// the same operating point — serving adds availability semantics, not
	// numeric drift.
	opt := sim.ScaledOptions(cfg.Scale)
	opt.Seed = cfg.Seed
	opt.Frames = 1
	direct, err := sim.NewRunner(opt).RunOneCtx(context.Background(), "TRu", mustPolicy(t, "DTexL"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct.Metrics)
	got, _ := json.Marshal(res.Metrics)
	if !bytes.Equal(want, got) {
		t.Errorf("served metrics differ from direct run:\n got %s\nwant %s", got, want)
	}
	wantE, _ := json.Marshal(direct.Energy)
	gotE, _ := json.Marshal(res.Energy)
	if !bytes.Equal(wantE, gotE) {
		t.Errorf("served energy differs from direct run:\n got %s\nwant %s", gotE, wantE)
	}
}

func TestValidateRejects(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cases := []SimRequest{
		{Benchmark: "nope", Policy: "DTexL"},
		{Benchmark: "TRu", Policy: "nope"},
		{Benchmark: "TRu", Policy: "DTexL", Scale: 65},
		{Benchmark: "TRu", Policy: "DTexL", Frames: 99},
	}
	for i, req := range cases {
		status, _, eres, _ := post(t, ts.URL, req)
		if status != http.StatusBadRequest || eres.Kind != KindBadRequest {
			t.Errorf("case %d: status %d kind %q, want 400 bad_request", i, status, eres.Kind)
		}
	}
}

// TestOverloadShedsExcessNever500s is the acceptance test: with the
// lone slot held, a blast of distinct non-degradable cells at 3× the
// remaining capacity must admit exactly one (the waiting-room position)
// and shed the rest with 429 + Retry-After — and the admitted one,
// once the slot frees, returns complete untainted metrics.
func TestOverloadShedsExcessNever500s(t *testing.T) {
	cfg := testConfig()
	s, ts := newTestServer(t, cfg)

	release, err := s.full.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Six distinct cells so the memo can't collapse the load.
	cells := []SimRequest{
		{Benchmark: "TRu", Policy: "baseline"},
		{Benchmark: "TRu", Policy: "DTexL"},
		{Benchmark: "TRu", Policy: "baseline-decoupled"},
		{Benchmark: "CCS", Policy: "baseline"},
		{Benchmark: "CCS", Policy: "DTexL"},
		{Benchmark: "CCS", Policy: "baseline-decoupled"},
	}
	type result struct {
		status int
		res    *SimResponse
		eres   *ErrorResponse
		header http.Header
		ttfb   time.Duration
	}
	results := make(chan result, len(cells))
	for _, req := range cells {
		go func(req SimRequest) {
			start := time.Now()
			st, res, eres, h := post(t, ts.URL, req)
			results <- result{st, res, eres, h, time.Since(start)}
		}(req)
	}

	// Free the slot once the blast has settled: one request parked in the
	// waiting room, the rest shed.
	for i := 0; s.full.waiting.Load() == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	shedBefore := s.full.shed.Load()
	for i := 0; s.full.shed.Load()-shedBefore < int64(len(cells)-1) && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	release()

	var ok, over int
	for range cells {
		r := <-results
		switch r.status {
		case http.StatusOK:
			ok++
			if r.res.Metrics == nil || r.res.Metrics.Cycles <= 0 {
				t.Error("accepted response under overload has no metrics")
			}
			if r.res.Degraded || r.res.Scale != cfg.Scale {
				t.Errorf("non-degradable request served degraded: %+v", r.res)
			}
			// TTFB bound: queue wait (≤ depth/slots budgets) + own cell.
			bound := time.Duration(cfg.QueueDepth/cfg.Concurrency+1) * cfg.CellBudget
			if r.ttfb > bound {
				t.Errorf("TTFB %v exceeds the documented bound %v", r.ttfb, bound)
			}
		case http.StatusTooManyRequests:
			over++
			if r.eres.Kind != KindOverCapacity {
				t.Errorf("429 kind = %q, want over_capacity", r.eres.Kind)
			}
			if r.header.Get("Retry-After") == "" || r.eres.RetryAfterMS < 1000 {
				t.Errorf("429 without usable Retry-After: header=%q body=%d", r.header.Get("Retry-After"), r.eres.RetryAfterMS)
			}
		default:
			t.Errorf("unexpected status %d under overload (body: %+v)", r.status, r.eres)
		}
	}
	if ok != 1 || over != len(cells)-1 {
		t.Errorf("ok=%d over=%d, want 1 admitted and %d shed", ok, over, len(cells)-1)
	}
}

// TestDegradableRequestsDegradeExplicitly: with the full lane saturated
// a degradable request runs in the degraded lane at a coarsened scale
// and says so; it is never silently served at full fidelity or shed
// while degraded capacity remains.
func TestDegradableRequestsDegradeExplicitly(t *testing.T) {
	cfg := testConfig()
	s, ts := newTestServer(t, cfg)

	// Saturate the full lane: test holds the slot, a goroutine parks in
	// the waiting room.
	release, err := s.full.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	parkCtx, parkCancel := context.WithCancel(context.Background())
	defer parkCancel()
	parked := make(chan struct{})
	go func() {
		rel, err := s.full.admit(parkCtx)
		if err == nil {
			rel()
		}
		close(parked)
	}()
	for i := 0; s.full.waiting.Load() == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}

	status, res, _, _ := post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "baseline", Degradable: true})
	if status != http.StatusOK {
		t.Fatalf("degradable request status = %d, want 200", status)
	}
	if !res.Degraded {
		t.Fatal("degraded run not labeled degraded")
	}
	if want := 2 * cfg.Scale; res.Scale != want {
		t.Errorf("degraded scale = %d, want %d", res.Scale, want)
	}
	if res.Metrics == nil || res.Metrics.Cycles <= 0 {
		t.Error("degraded response has no metrics")
	}
	parkCancel()
	<-parked
}

// TestDeadlineExpiresWhileQueued: a request whose timeout_ms lands
// during the queue wait gets 504/timeout, and its queue position is
// reclaimed.
func TestDeadlineExpiresWhileQueued(t *testing.T) {
	cfg := testConfig()
	s, ts := newTestServer(t, cfg)
	release, err := s.full.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	status, _, eres, _ := post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "baseline", TimeoutMS: 50})
	if status != http.StatusGatewayTimeout || eres.Kind != KindTimeout {
		t.Fatalf("status %d kind %q, want 504 timeout", status, eres.Kind)
	}
	// Queue position reclaimed: another short-deadline request can park
	// again rather than shedding.
	status, _, eres, _ = post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "baseline", TimeoutMS: 50})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("second queued request status %d kind %q, want 504 (queue position leaked?)", status, eres.Kind)
	}
}

// TestStallBecomesStructured500: chaos-injected livelock surfaces as a
// 500 whose body carries the watchdog's full state dump — the failure
// is diagnosable from the response alone.
func TestStallBecomesStructured500(t *testing.T) {
	cfg := testConfig()
	chaos, err := sim.ParseChaos("TRu/baseline/stall")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = chaos
	_, ts := newTestServer(t, cfg)

	status, _, eres, _ := post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "baseline"})
	if status != http.StatusInternalServerError || eres.Kind != KindStall {
		t.Fatalf("status %d kind %q, want 500 stall", status, eres.Kind)
	}
	if eres.Stall == nil || len(eres.Stall.SCs) == 0 || eres.Stall.Dump() == "" {
		t.Fatalf("stall body carries no usable state dump: %+v", eres.Stall)
	}
	// The healthy sibling cell still works: the stall poisoned one cell,
	// not the server.
	status, res, _, _ := post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "DTexL"})
	if status != http.StatusOK || res.Metrics == nil {
		t.Fatalf("healthy cell after a stall: status %d", status)
	}
}

func TestDrainingRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, testConfig())

	hres, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d before drain, want 200", hres.StatusCode)
	}

	s.BeginDrain()
	hres, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var st ReadyState
	json.NewDecoder(hres.Body).Decode(&st)
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable || st.Status != "draining" {
		t.Fatalf("/readyz = %d %q during drain, want 503 draining", hres.StatusCode, st.Status)
	}

	status, _, eres, _ := post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "baseline"})
	if status != http.StatusServiceUnavailable || eres.Kind != KindDraining {
		t.Fatalf("simulate during drain: status %d kind %q, want 503 draining", status, eres.Kind)
	}
	if err := s.AwaitIdle(context.Background()); err != nil {
		t.Fatalf("AwaitIdle on an idle server: %v", err)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	hres, err := http.Get(ts.URL + "/v1/experiments/nope")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown experiment = %d, want 400", hres.StatusCode)
	}

	// tab1 generates scenes but runs no simulations — a cheap happy
	// path. Ids ignore case, as they do for dtexlbench -exp.
	for _, id := range []string{"tab1", "TAB1"} {
		hres, err = http.Get(ts.URL + "/v1/experiments/" + id)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(hres.Body)
		hres.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hres.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", id, hres.StatusCode)
		}
		if !strings.Contains(string(raw), "Temple Run") {
			t.Errorf("%s body missing benchmark table", id)
		}
	}
}

func mustPolicy(t *testing.T, name string) core.Policy {
	t.Helper()
	p, err := core.PolicyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// --- request coalescing ---

// TestCoalescedRequestsRunOneSimulation pins the M→1 contract: M
// concurrent identical requests join one flight, consume one admission
// slot, and execute exactly one simulation. The test makes the pile-up
// deterministic by holding the lone full-lane slot until every request
// has either created or joined the flight.
func TestCoalescedRequestsRunOneSimulation(t *testing.T) {
	const m = 4
	cfg := testConfig()
	s, ts := newTestServer(t, cfg)

	release, err := s.full.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	req := SimRequest{Benchmark: "TRu", Policy: "DTexL"}
	type result struct {
		status int
		res    *SimResponse
	}
	results := make(chan result, m)
	for i := 0; i < m; i++ {
		go func() {
			st, res, _, _ := post(t, ts.URL, req)
			results <- result{st, res}
		}()
	}
	// All M requests target one flightKey: the first creates the flight
	// (parked in the admission queue), the other M-1 join it.
	for i := 0; s.flights.joined.Load() < m-1 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := s.flights.joined.Load(); got != m-1 {
		t.Fatalf("coalesced joins = %d, want %d", got, m-1)
	}
	release()

	var bodies [][]byte
	for i := 0; i < m; i++ {
		r := <-results
		if r.status != http.StatusOK || r.res.Metrics == nil {
			t.Fatalf("coalesced request %d: status %d", i, r.status)
		}
		b, _ := json.Marshal(r.res.Metrics)
		bodies = append(bodies, b)
	}
	for i := 1; i < m; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("coalesced responses diverge:\n%s\n%s", bodies[0], bodies[i])
		}
	}
	if got := s.flights.started.Load(); got != 1 {
		t.Errorf("flights started = %d, want 1", got)
	}
	if got := s.simsComputed(); got != 1 {
		t.Errorf("simulations computed = %d, want 1", got)
	}
}

// TestCoalescedRunSurvivesJoinerCancel is the cancellation regression
// test: the request that created the flight is cancelled mid-run, and
// the shared computation must keep going for the remaining joiner —
// no retry, no second simulation, no poisoned memo entry.
func TestCoalescedRunSurvivesJoinerCancel(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 4 // a meatier cell so "mid-run" is a real window
	s, ts := newTestServer(t, cfg)

	release, err := s.full.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(SimRequest{Benchmark: "TRu", Policy: "DTexL"})

	// Request A creates the flight (parked behind the held slot).
	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	aerrc := make(chan error, 1)
	go func() {
		hreq, _ := http.NewRequestWithContext(actx, http.MethodPost, ts.URL+"/v1/simulate", bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		hres, err := http.DefaultClient.Do(hreq)
		if err == nil {
			hres.Body.Close()
		}
		aerrc <- err
	}()
	for i := 0; s.flights.started.Load() == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}

	// Request B joins it.
	type result struct {
		status int
		res    *SimResponse
	}
	bres := make(chan result, 1)
	go func() {
		st, res, _, _ := post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "DTexL"})
		bres <- result{st, res}
	}()
	for i := 0; s.flights.joined.Load() == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}

	// Let the flight start executing, then cancel A mid-run.
	release()
	for i := 0; s.full.active.Load() == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	acancel()
	if err := <-aerrc; err == nil {
		t.Fatal("cancelled request A unexpectedly completed")
	}

	// B still gets the real result from the one shared run.
	r := <-bres
	if r.status != http.StatusOK || r.res == nil || r.res.Metrics == nil || r.res.Metrics.Cycles <= 0 {
		t.Fatalf("joiner after creator cancel: status %d res %+v", r.status, r.res)
	}
	if got := s.flights.started.Load(); got != 1 {
		t.Errorf("flights started = %d, want 1 (joiner had to retry a killed run?)", got)
	}
	if got := s.simsComputed(); got != 1 {
		t.Errorf("simulations computed = %d, want 1", got)
	}

	// And the memo entry is healthy: a fresh request is a pure memo hit.
	st, res, _, _ := post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "DTexL"})
	if st != http.StatusOK || res.Metrics == nil {
		t.Fatalf("post-cancel memo-hit request: status %d", st)
	}
	if got := s.simsComputed(); got != 1 {
		t.Errorf("memo recompute after cancel: simsComputed = %d, want 1", got)
	}
}

// TestLastLeaverCancelsFlight: when every joined request abandons a
// flight, the shared run is torn down — abandoned work must not hold an
// admission slot — and the queue position is reclaimed.
func TestLastLeaverCancelsFlight(t *testing.T) {
	cfg := testConfig()
	s, ts := newTestServer(t, cfg)
	release, err := s.full.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// The lone requester times out while its flight queues for admission.
	status, _, eres, _ := post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "baseline", TimeoutMS: 50})
	if status != http.StatusGatewayTimeout || eres.Kind != KindTimeout {
		t.Fatalf("status %d kind %q, want 504 timeout", status, eres.Kind)
	}
	// The abandoned flight exits and frees its queue position: the next
	// short-deadline request parks again instead of shedding 429.
	for i := 0; s.full.waiting.Load() != 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	status, _, eres, _ = post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "baseline", TimeoutMS: 50})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("second request status %d kind %q, want 504 (flight leaked its queue position?)", status, eres.Kind)
	}
	if got := s.simsComputed(); got != 0 {
		t.Errorf("abandoned flights computed %d simulations, want 0", got)
	}
}
