package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/energy"
	"dtexl/internal/netauth"
	"dtexl/internal/pipeline"
	"dtexl/internal/sim"
	"dtexl/internal/trace"
)

// Config sizes the service. The zero value of every field has a usable
// default; see each field.
type Config struct {
	// Scale is the full-fidelity resolution divisor (the CLI's -scale).
	// Default 4.
	Scale int
	// DegradedScale is the divisor used when a degradable request is
	// admitted under overload. Defaults to 2×Scale, and is always
	// coarsened to at least twice the request's own scale — degradation
	// at minimum quarters the pixel count.
	DegradedScale int
	// Seed drives the deterministic scene generators.
	Seed uint64
	// Concurrency is the full-fidelity slot count (0 = GOMAXPROCS).
	Concurrency int
	// QueueDepth is the bounded waiting room beyond the slots
	// (0 = 2×Concurrency). Requests beyond slots+queue are shed with
	// 429 or degraded.
	QueueDepth int
	// CellBudget bounds each simulation cell's wall time; it is also the
	// unit of the Retry-After estimate. Default 2m.
	CellBudget time.Duration
	// Store, when non-nil, is the result store under every runner's
	// memo (L2): cells completed before a restart, or by any process
	// sharing the directory, are served without recompute, and cells
	// computed here are recorded as they finish. Keys embed the
	// effective machine config, so the pool's scales never collide.
	Store *sim.Store
	// FleetStatus, when non-nil, is polled by GET /workerz and folded
	// into /readyz — the fleet-worker view of this process (registration,
	// completed cells, partition state).
	FleetStatus func() any
	// Chaos, when non-nil, injects faults into matching cells — the CI
	// smoke runs the service with an injected livelock to prove stalls
	// surface as structured 500s, not process death.
	Chaos *sim.ChaosConfig
	// AuthToken, when set, gates the /v1/* API behind bearer-token auth.
	// Health probes (/healthz, /readyz, /workerz) stay open — orchestrator
	// liveness checks cannot carry secrets.
	AuthToken string
	// Logf, when non-nil, receives one line per notable server event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Scale < 1 {
		c.Scale = 4
	}
	if c.DegradedScale < 1 {
		c.DegradedScale = 2 * c.Scale
	}
	if c.Concurrency < 1 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 2 * c.Concurrency
	}
	if c.CellBudget <= 0 {
		c.CellBudget = 2 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

const (
	// maxFrames caps the per-request frames parameter.
	maxFrames = 4
	// prepBudget bounds the bytes each runner retains for prepared
	// frames — far below the batch CLI's default, since the service is
	// long-lived.
	prepBudget = 512 << 20
)

// runnerKey identifies one pooled Runner: the service keeps one memo
// stack per (scale, frames) machine so repeated requests are served
// from memo — the serving-path analogue of Rendering Elimination's
// reuse of already-computed results.
type runnerKey struct {
	scale  int
	frames int
}

// Server is the overload-hardened simulation service. Create with New,
// mount Handler on an http.Server, and on SIGTERM call BeginDrain
// before http.Server.Shutdown; Abort cancels in-flight executors if
// the grace budget runs out.
type Server struct {
	cfg Config

	base   context.Context // parent of every simulation; Abort cancels it
	cancel context.CancelFunc

	full     *lane // full-fidelity admission
	degraded *lane // reduced-scale overload lane

	flights *coalescer // merges concurrent identical /v1/simulate requests

	mu      sync.Mutex
	runners map[runnerKey]*sim.Runner
	expMu   sync.Mutex // serializes experiment rendering (Runner.CSV is runner state)

	draining atomic.Bool
	inflight sync.WaitGroup
	inFlight atomic.Int64
	served   atomic.Int64
}

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:    cfg,
		base:   base,
		cancel: cancel,
		// The degraded lane is deliberately small: it exists to keep
		// degradable requests answerable during bursts, not to double
		// capacity.
		full:     newLane(cfg.Concurrency, cfg.QueueDepth),
		degraded: newLane(max(1, cfg.Concurrency/2), cfg.QueueDepth),
		flights:  newCoalescer(),
		runners:  make(map[runnerKey]*sim.Runner),
	}
}

// runner returns the pooled Runner for (scale, frames), creating it on
// first use. Every runner shares the server's base context, store and
// chaos config; memo stacks are per-runner (keys differ by resolution).
func (s *Server) runner(scale, frames int) *sim.Runner {
	key := runnerKey{scale: scale, frames: frames}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runners[key]; ok {
		return r
	}
	opt := sim.ScaledOptions(scale)
	opt.Seed = s.cfg.Seed
	opt.Frames = frames
	r := sim.NewRunner(opt)
	r.Ctx = s.base
	// One admitted request runs one simulation at a time, which is what
	// sizes the full lane's slots: an experiment render stays serial
	// instead of fanning its rows out inside a single slot.
	r.Parallelism = 1
	r.RunTimeout = s.cfg.CellBudget
	r.PrepBudget = prepBudget
	r.Store = s.cfg.Store
	r.Chaos = s.cfg.Chaos
	s.runners[key] = r
	return r
}

// SimRequest is the body of POST /v1/simulate.
type SimRequest struct {
	Benchmark string `json:"benchmark"`
	Policy    string `json:"policy"`
	// Scale divides the paper resolution; 0 means the server's default.
	Scale int `json:"scale,omitempty"`
	// Frames is the animation length (0 = 1).
	Frames int `json:"frames,omitempty"`
	// Degradable opts into the overload ladder: under pressure the
	// request may run at a coarser scale instead of being shed, and the
	// response is explicitly marked degraded.
	Degradable bool `json:"degradable,omitempty"`
	// TimeoutMS bounds the whole request — queue wait included — beyond
	// the server's per-cell budget. 0 means no extra deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SimResponse is the 200 body of POST /v1/simulate. Scale and Degraded
// record what actually ran: a degraded response is never silently
// substituted for the requested fidelity.
type SimResponse struct {
	Benchmark string            `json:"benchmark"`
	Policy    string            `json:"policy"`
	Scale     int               `json:"scale"`
	Frames    int               `json:"frames"`
	Degraded  bool              `json:"degraded"`
	ElapsedMS float64           `json:"elapsed_ms"`
	FPS       float64           `json:"fps"`
	Metrics   *pipeline.Metrics `json:"metrics"`
	Energy    energy.Breakdown  `json:"energy"`
}

// ErrorResponse is the JSON body of every non-200. Kind is machine
// readable; the retry/backoff client switches on it.
type ErrorResponse struct {
	Error        string               `json:"error"`
	Kind         string               `json:"kind"`
	RetryAfterMS int64                `json:"retry_after_ms,omitempty"`
	Stall        *pipeline.StallError `json:"stall,omitempty"`
}

// Error kinds.
const (
	KindBadRequest   = "bad_request"
	KindOverCapacity = "over_capacity"
	KindDraining     = "draining"
	KindStall        = "stall"
	KindTimeout      = "timeout"
	KindCanceled     = "canceled"
	KindInternal     = "internal"
)

// Handler mounts the API:
//
//	POST /v1/simulate           run one (benchmark, policy) cell
//	GET  /v1/experiments/{name} render one experiment table (text or CSV)
//	GET  /healthz               process liveness
//	GET  /readyz                readiness + admission stats (503 draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("GET /v1/experiments/{name}", s.handleExperiment)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /workerz", s.handleWorkerz)
	return netauth.Middleware(s.cfg.AuthToken,
		netauth.OpenPaths("/healthz", "/readyz", "/workerz"), mux)
}

// handleWorkerz reports the process's fleet-worker status; 404 when the
// process is not a fleet worker.
func (s *Server) handleWorkerz(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.FleetStatus == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{
			Error: "not a fleet worker", Kind: KindBadRequest,
		})
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.FleetStatus())
}

// ReadyState is the /readyz body. Coalesced counts requests that joined
// an already-in-flight identical run, FlightsStarted the runs actually
// launched, and SimsComputed the simulations the memo stacks really
// executed — M concurrent identical requests should move SimsComputed
// by exactly 1 (the dtexlload -identical check).
type ReadyState struct {
	Status         string `json:"status"` // "ok" or "draining"
	InFlight       int64  `json:"in_flight"`
	Served         int64  `json:"served"`
	Coalesced      int64  `json:"coalesced"`
	FlightsStarted int64  `json:"flights_started"`
	SimsComputed   uint64 `json:"sims_computed"`
	Full           Stats  `json:"full"`
	Degraded       Stats  `json:"degraded"`
	// Store is the result store's counters when one is attached: hits,
	// misses, corrupt drops and repairs.
	Store *sim.StoreStats `json:"store,omitempty"`
	// Fleet is the fleet-worker status when this process is one.
	Fleet any `json:"fleet,omitempty"`
}

// simsComputed sums the raster-phase memo misses across the runner
// pool: the number of simulations that actually executed (store and
// memo hits excluded).
func (s *Server) simsComputed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, r := range s.runners {
		n += r.Timing().SimMisses
	}
	return n
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := ReadyState{
		Status:         "ok",
		InFlight:       s.inFlight.Load(),
		Served:         s.served.Load(),
		Coalesced:      s.flights.joined.Load(),
		FlightsStarted: s.flights.started.Load(),
		SimsComputed:   s.simsComputed(),
		Full:           s.full.statsSnapshot(),
		Degraded:       s.degraded.statsSnapshot(),
	}
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		st.Store = &ss
	}
	if s.cfg.FleetStatus != nil {
		st.Fleet = s.cfg.FleetStatus()
	}
	code := http.StatusOK
	if s.draining.Load() {
		st.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

func (s *Server) handleSimulate(w http.ResponseWriter, req *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error: "server is draining", Kind: KindDraining,
		})
		return
	}
	var sr SimRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20)).Decode(&sr); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: "invalid JSON body: " + err.Error(), Kind: KindBadRequest,
		})
		return
	}
	pol, err := s.validate(&sr)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Kind: KindBadRequest})
		return
	}

	s.inflight.Add(1)
	s.inFlight.Add(1)
	defer func() {
		s.inFlight.Add(-1)
		s.inflight.Done()
	}()

	// The request context covers queue wait and execution; a client
	// disconnect or timeout_ms deadline frees the queue position and,
	// via RunOneCtx, reaches the executor watchdog.
	ctx := req.Context()
	if sr.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(sr.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	// Concurrent requests for the same cell coalesce into one flight
	// that performs the whole admission ladder and run: M identical
	// requests consume one slot and at most one simulation. The flight
	// runs under a detached context derived from s.base, so cancelling
	// this request merely detaches it — the run survives for any other
	// joiners and is torn down only when the last one leaves.
	start := time.Now()
	key := flightKey{
		benchmark:  sr.Benchmark,
		policy:     pol.Name,
		scale:      sr.Scale,
		frames:     sr.Frames,
		degradable: sr.Degradable,
	}
	track := func() func() {
		s.inflight.Add(1)
		return s.inflight.Done
	}
	out, err := s.flights.do(ctx, s.base, key, track, func(runCtx context.Context) flightResult {
		// Degradation ladder: full fidelity → (degradable only) reduced
		// scale, explicitly labeled → 429 with a Retry-After estimate.
		scale, degraded := sr.Scale, false
		release, aerr := s.full.admit(runCtx)
		if errors.Is(aerr, ErrOverCapacity) && sr.Degradable {
			scale, degraded = s.degradedScaleFor(sr.Scale), true
			release, aerr = s.degraded.admit(runCtx)
		}
		if aerr != nil {
			return flightResult{scale: scale, degraded: degraded, admitErr: aerr}
		}
		defer release()
		res, rerr := s.runner(scale, sr.Frames).RunOneCtx(runCtx, sr.Benchmark, pol, nil)
		return flightResult{res: res, scale: scale, degraded: degraded, err: rerr}
	})
	if err != nil {
		// Our own context ended while waiting on the flight (which keeps
		// running if anyone else is still joined).
		s.writeAdmitError(w, err)
		return
	}
	if out.admitErr != nil {
		s.writeAdmitError(w, out.admitErr)
		return
	}
	if out.err != nil {
		s.writeRunError(w, out.err)
		return
	}
	s.served.Add(1)
	writeJSON(w, http.StatusOK, SimResponse{
		Benchmark: sr.Benchmark,
		Policy:    pol.Name,
		Scale:     out.scale,
		Frames:    sr.Frames,
		Degraded:  out.degraded,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		FPS:       out.res.Metrics.FPS,
		Metrics:   out.res.Metrics,
		Energy:    out.res.Energy,
	})
}

// validate normalizes and bounds a SimRequest, resolving its policy.
func (s *Server) validate(sr *SimRequest) (core.Policy, error) {
	if _, err := trace.ProfileByAlias(sr.Benchmark); err != nil {
		return core.Policy{}, fmt.Errorf("unknown benchmark %q (want one of %s)",
			sr.Benchmark, strings.Join(trace.Aliases(), ", "))
	}
	pol, err := core.PolicyByName(sr.Policy)
	if err != nil {
		return core.Policy{}, err
	}
	if sr.Scale == 0 {
		sr.Scale = s.cfg.Scale
	}
	if sr.Scale < 1 || sr.Scale > 64 {
		return core.Policy{}, fmt.Errorf("scale %d out of range [1,64]", sr.Scale)
	}
	if sr.Frames == 0 {
		sr.Frames = 1
	}
	if sr.Frames < 1 || sr.Frames > maxFrames {
		return core.Policy{}, fmt.Errorf("frames %d out of range [1,%d]", sr.Frames, maxFrames)
	}
	return pol, nil
}

// degradedScaleFor coarsens a request's scale for the overload lane:
// the server's degraded scale, but always at least twice the requested
// divisor so degradation genuinely sheds work.
func (s *Server) degradedScaleFor(reqScale int) int {
	ds := s.cfg.DegradedScale
	if ds < 2*reqScale {
		ds = 2 * reqScale
	}
	if ds > 64 {
		ds = 64
	}
	return ds
}

func (s *Server) handleExperiment(w http.ResponseWriter, req *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error: "server is draining", Kind: KindDraining,
		})
		return
	}
	name := req.PathValue("name")
	known := false
	for _, id := range sim.ExperimentIDs() {
		if id == name {
			known = true
			break
		}
	}
	if !known {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("unknown experiment %q (want one of %s)", name, strings.Join(sim.ExperimentIDs(), ", ")),
			Kind:  KindBadRequest,
		})
		return
	}

	s.inflight.Add(1)
	s.inFlight.Add(1)
	defer func() {
		s.inFlight.Add(-1)
		s.inflight.Done()
	}()

	// Experiments are whole-suite heavy and never degradable; they run
	// at the server's base fidelity through the full lane. The request
	// context governs the queue wait; execution is bounded per cell by
	// the server's cell budget rather than by the request deadline.
	release, aerr := s.full.admit(req.Context())
	if aerr != nil {
		s.writeAdmitError(w, aerr)
		return
	}
	defer release()

	r := s.runner(s.cfg.Scale, 1)
	var buf strings.Builder
	// Runner.CSV is runner state, so experiment rendering serializes;
	// the underlying simulations are still memo-shared with /v1/simulate.
	s.expMu.Lock()
	r.CSV = req.URL.Query().Get("csv") == "1"
	err := r.RunExperiment(name, &buf)
	r.CSV = false
	s.expMu.Unlock()
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	s.served.Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, buf.String())
}

// writeAdmitError maps an admission failure: over capacity becomes 429
// with a Retry-After derived from the queue picture, a dead request
// context becomes 504/503.
func (s *Server) writeAdmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverCapacity):
		ra := s.full.retryAfter(s.cfg.CellBudget)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64(math.Ceil(ra.Seconds()))))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:        "over admission capacity",
			Kind:         KindOverCapacity,
			RetryAfterMS: ra.Milliseconds(),
		})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{
			Error: "request deadline expired while queued", Kind: KindTimeout,
		})
	default:
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error: "request canceled while queued", Kind: KindCanceled,
		})
	}
}

// writeRunError maps a simulation failure to a structured body. A stall
// returns the full watchdog state dump — the diagnostic that used to be
// a process-killing panic — as a 500 the client can log and act on.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	var se *pipeline.StallError
	switch {
	case errors.As(err, &se):
		s.cfg.Logf("serve: executor stall: %v", err)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{
			Error: err.Error(), Kind: KindStall, Stall: se,
		})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{
			Error: err.Error(), Kind: KindTimeout,
		})
	case errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error: err.Error(), Kind: KindCanceled,
		})
	default:
		s.cfg.Logf("serve: internal error: %v", err)
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{
			Error: err.Error(), Kind: KindInternal,
		})
	}
}

// BeginDrain flips the server unready: /readyz turns 503 and new API
// requests are rejected with kind "draining". In-flight requests keep
// their slots; call AwaitIdle (or http.Server.Shutdown) to wait for
// them, then Abort if the grace budget expires. With a Store, completed
// cells are already recorded (each entry is fsync'd as its cell
// finishes), so a drained — or even aborted — server loses nothing that
// finished.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.cfg.Logf("serve: draining: readiness off, rejecting new work")
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// AwaitIdle blocks until every in-flight request has finished, or ctx
// ends (returning its error) — the drain-grace wait.
func (s *Server) AwaitIdle(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Abort cancels the base context under every in-flight executor: the
// watchdogs observe it within 2^12 scheduling steps and the requests
// fail with kind "canceled". The hard edge of the grace budget.
func (s *Server) Abort() {
	s.cfg.Logf("serve: grace budget exhausted, aborting in-flight executors")
	s.cancel()
}

// InFlightRequests reports the number of requests currently admitted or
// queued.
func (s *Server) InFlightRequests() int64 { return s.inFlight.Load() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
