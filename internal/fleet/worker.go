package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dtexl/internal/sim"
)

// WorkerConfig wires one worker to a coordinator (or an HA set of
// them).
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:port".
	Coordinator string
	// Coordinators is the ordered endpoint list for HA deployments: the
	// worker talks to one endpoint until it fails (transport error or 503
	// standby), then rotates to the next. Coordinator, when set, is
	// prepended.
	Coordinators []string
	// Name labels the worker in coordinator stats and logs.
	Name string
	// NewRunner builds the simulation runner once registration delivers
	// the suite options. Defaults to sim.NewRunner; callers layer in a
	// shared store, chaos or a cell timeout here.
	NewRunner func(opt sim.Options) *sim.Runner
	// Client is the HTTP client; default has a 5-minute timeout (cells
	// are compute-heavy and the complete POST carries the result).
	Client *http.Client
	// PartitionAfter, when > 0, injects a network partition for chaos
	// testing: after that many completed cells the worker goes silent
	// (no heartbeats, no reports) for PartitionFor while HOLDING a
	// computed result, then reports it late — exercising lease
	// reassignment plus idempotent late acceptance.
	PartitionAfter int
	PartitionFor   time.Duration
	// Logf, when non-nil, receives one line per worker event.
	Logf func(format string, args ...any)
}

// Worker pulls leased cells from a coordinator, computes them through
// the full memo stack, and reports checksummed results.
type Worker struct {
	cfg       WorkerConfig
	endpoints []string

	runnerOnce sync.Once
	runner     *sim.Runner

	mu    sync.Mutex // guards id, beat, epoch, held, epIdx
	id    string
	beat  time.Duration
	epoch uint64
	held  *HeldLease // in-flight lease, presented on re-registration
	epIdx int        // current coordinator endpoint

	silent    atomic.Bool  // partition injection: drop heartbeats
	completed atomic.Int64 // cells finished (late reports included)
	resumed   atomic.Int64 // leases adopted across re-registrations
}

// identity snapshots the current worker ID, heartbeat interval and
// coordinator epoch.
func (w *Worker) identity() (string, time.Duration, uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id, w.beat, w.epoch
}

// setHeld records (or clears) the lease the worker is computing, so a
// re-registration mid-compute can present it for adoption.
func (w *Worker) setHeld(h *HeldLease) {
	w.mu.Lock()
	w.held = h
	w.mu.Unlock()
}

// endpoint returns the current coordinator base URL.
func (w *Worker) endpoint() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.endpoints[w.epIdx]
}

// rotateEndpoint advances past a failed endpoint — but only if the
// failure was observed against the current one, so concurrent loops
// (heartbeat + work) don't double-skip a healthy coordinator.
func (w *Worker) rotateEndpoint(failed string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.endpoints) > 1 && w.endpoints[w.epIdx] == failed {
		w.epIdx = (w.epIdx + 1) % len(w.endpoints)
		w.cfg.Logf("fleet: worker %s: coordinator %s unavailable; rotating to %s", w.cfg.Name, failed, w.endpoints[w.epIdx])
	}
}

// Resumed counts leases the coordinator adopted across this worker's
// re-registrations — the observable for lease-token continuity tests.
func (w *Worker) Resumed() int64 { return w.resumed.Load() }

// WorkerStatus is the /workerz view of a worker.
type WorkerStatus struct {
	Name        string `json:"name"`
	WorkerID    string `json:"worker_id"`
	Coordinator string `json:"coordinator"`
	Completed   int64  `json:"completed"`
	Partitioned bool   `json:"partitioned"`
}

// Status snapshots the worker for health endpoints. Safe to call
// concurrently with Run.
func (w *Worker) Status() WorkerStatus {
	id, _, _ := w.identity()
	return WorkerStatus{
		Name:        w.cfg.Name,
		WorkerID:    id,
		Coordinator: w.endpoint(),
		Completed:   w.completed.Load(),
		Partitioned: w.silent.Load(),
	}
}

// NewWorker builds a worker; Run does the work.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.NewRunner == nil {
		cfg.NewRunner = sim.NewRunner
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Minute}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	var eps []string
	if cfg.Coordinator != "" {
		eps = append(eps, cfg.Coordinator)
	}
	eps = append(eps, cfg.Coordinators...)
	return &Worker{cfg: cfg, endpoints: eps}
}

// Run registers, heartbeats, and works leases until the suite is done
// or ctx ends. A coordinator that stays unreachable past the transport
// retry budget ends the run with an error.
func (w *Worker) Run(ctx context.Context) error {
	if len(w.endpoints) == 0 {
		return fmt.Errorf("fleet: worker %s: no coordinator endpoints", w.cfg.Name)
	}
	if err := w.register(ctx); err != nil {
		return err
	}

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx)

	for {
		id, beat, epoch := w.identity()
		var resp LeaseResponse
		status, err := w.post(ctx, PathLease, LeaseRequest{WorkerID: id, Epoch: epoch}, &resp)
		if err != nil {
			return fmt.Errorf("fleet: worker %s: lease: %w", w.cfg.Name, err)
		}
		if status == http.StatusGone || status == http.StatusConflict {
			if err := w.register(ctx); err != nil {
				return err
			}
			continue
		}
		switch {
		case resp.Done:
			w.cfg.Logf("fleet: worker %s: suite done after %d cell(s)", w.cfg.Name, w.completed.Load())
			return nil
		case resp.Idle:
			wait := time.Duration(resp.RetryMS) * time.Millisecond
			if wait <= 0 {
				wait = beat
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		default:
			w.workCell(ctx, id, resp)
		}
	}
}

// workCell computes one leased cell and reports the outcome. Errors in
// reporting are logged, not fatal: the coordinator's lease machinery
// recovers the cell either way.
func (w *Worker) workCell(ctx context.Context, id string, l LeaseResponse) {
	w.cfg.Logf("fleet: worker %s: cell %s (lease %s, stolen=%v)", w.cfg.Name, l.Cell.ID(), l.LeaseID, l.Stolen)
	// Hold the lease token while computing: if a failover forces a
	// re-registration mid-compute (from the heartbeat loop), the new
	// coordinator adopts this lease instead of reassigning the cell.
	_, _, epoch := w.identity()
	w.setHeld(&HeldLease{LeaseID: l.LeaseID, Cell: l.Cell, Epoch: epoch})
	defer w.setHeld(nil)
	// Hold only the prepared frame this cell reads: the coordinator
	// leases frame by frame, so the frame dropped here is one this
	// worker is done with.
	w.runner.KeepFrameOf(l.Cell)
	res, err := w.runner.RunCell(ctx, l.Cell)
	if err != nil {
		w.cfg.Logf("fleet: worker %s: cell %s failed: %v", w.cfg.Name, l.Cell.ID(), err)
		if _, perr := w.post(ctx, PathFail, FailRequest{
			WorkerID: id, LeaseID: l.LeaseID, Cell: l.Cell, Error: err.Error(),
		}, nil); perr != nil {
			w.cfg.Logf("fleet: worker %s: fail report lost: %v", w.cfg.Name, perr)
		}
		return
	}
	b, sum, err := sim.MarshalCellResult(res)
	if err != nil {
		w.cfg.Logf("fleet: worker %s: cell %s: %v", w.cfg.Name, l.Cell.ID(), err)
		return
	}
	if done := w.completed.Add(1); w.cfg.PartitionAfter > 0 && done == int64(w.cfg.PartitionAfter) {
		// Injected partition: hold the finished result, go silent long
		// enough for the coordinator to reassign, then report late.
		w.cfg.Logf("fleet: worker %s: entering injected partition for %v holding cell %s", w.cfg.Name, w.cfg.PartitionFor, l.Cell.ID())
		w.silent.Store(true)
		select {
		case <-time.After(w.cfg.PartitionFor):
		case <-ctx.Done():
			return
		}
		w.silent.Store(false)
		w.cfg.Logf("fleet: worker %s: partition healed, reporting held cell %s", w.cfg.Name, l.Cell.ID())
	}
	// Re-read the identity: a mid-compute re-registration (failover)
	// changed the worker ID, and the lease was adopted under the new one.
	id, _, _ = w.identity()
	status, err := w.post(ctx, PathComplete, CompleteRequest{
		WorkerID: id, LeaseID: l.LeaseID, Cell: l.Cell, Result: b, Sum: sum,
	}, nil)
	if err != nil {
		w.cfg.Logf("fleet: worker %s: complete report lost for cell %s: %v", w.cfg.Name, l.Cell.ID(), err)
		return
	}
	if status != http.StatusOK {
		w.cfg.Logf("fleet: worker %s: coordinator refused result for cell %s (status %d)", w.cfg.Name, l.Cell.ID(), status)
	}
}

// register (re-)announces the worker — presenting any held lease for
// adoption — and builds the runner from the coordinator's suite options
// on first success. Safe to call concurrently from the work loop and
// the heartbeat loop: identity updates are atomic under the mutex and
// registration is idempotent on the coordinator side.
func (w *Worker) register(ctx context.Context) error {
	w.mu.Lock()
	req := RegisterRequest{Name: w.cfg.Name}
	if w.held != nil {
		req.Held = []HeldLease{*w.held}
	}
	w.mu.Unlock()
	var resp RegisterResponse
	status, err := w.post(ctx, PathRegister, req, &resp)
	if err != nil {
		return fmt.Errorf("fleet: worker %s: register: %w", w.cfg.Name, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("fleet: worker %s: register: status %d", w.cfg.Name, status)
	}
	beat := time.Duration(resp.HeartbeatIntervalMS) * time.Millisecond
	if beat <= 0 {
		beat = DefaultHeartbeatInterval
	}
	w.mu.Lock()
	w.id = resp.WorkerID
	w.beat = beat
	w.epoch = resp.Epoch
	w.mu.Unlock()
	w.resumed.Add(int64(len(resp.Resumed)))
	w.runnerOnce.Do(func() { w.runner = w.cfg.NewRunner(resp.Options) })
	w.cfg.Logf("fleet: worker %s: registered as %s (epoch %d, heartbeat %v, %d lease(s) resumed)",
		w.cfg.Name, resp.WorkerID, resp.Epoch, beat, len(resp.Resumed))
	return nil
}

// heartbeatLoop renews liveness every interval. A 410 (written off) or
// 409 (stale epoch after a failover) triggers an immediate
// re-registration from here — the work loop may be deep in a long
// compute, and re-registering now, with the held lease presented,
// preserves lease-token continuity instead of letting the new
// coordinator's lapse machinery reassign the cell.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	_, beat, _ := w.identity()
	t := time.NewTicker(beat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if w.silent.Load() {
			continue // injected partition: drop the beat
		}
		id, _, epoch := w.identity()
		status, err := w.post(ctx, PathHeartbeat, HeartbeatRequest{WorkerID: id, Epoch: epoch}, nil)
		if err != nil {
			w.cfg.Logf("fleet: worker %s: heartbeat lost: %v", w.cfg.Name, err)
			continue
		}
		if status == http.StatusGone || status == http.StatusConflict {
			w.cfg.Logf("fleet: worker %s: heartbeat rejected (status %d); re-registering", w.cfg.Name, status)
			if err := w.register(ctx); err != nil {
				w.cfg.Logf("fleet: worker %s: re-register failed: %v", w.cfg.Name, err)
			}
		}
	}
}

// post sends one JSON request, retrying transport errors with capped
// backoff so a briefly unreachable coordinator does not kill the
// worker. A transport error or a 503 (standby coordinator) rotates to
// the next endpoint in the list before the retry — this is the whole
// worker side of failover. Returns the final HTTP status; out (when
// non-nil) is decoded from a 200 body.
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	var lastErr error
	backoff := 100 * time.Millisecond
	attempts := 6
	if len(w.endpoints) > 1 {
		attempts = 6 * len(w.endpoints)
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
		}
		ep := w.endpoint()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ep+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.cfg.Client.Do(req)
		if err != nil {
			lastErr = err
			w.rotateEndpoint(ep)
			backoff = 100 * time.Millisecond // fresh endpoint, fresh budget
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("endpoint %s is standby (503)", ep)
			w.rotateEndpoint(ep)
			continue
		}
		if out != nil && resp.StatusCode == http.StatusOK {
			err := json.NewDecoder(resp.Body).Decode(out)
			resp.Body.Close()
			if err != nil {
				lastErr = err
				continue
			}
			return resp.StatusCode, nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	return 0, fmt.Errorf("coordinator unreachable after retries: %w", lastErr)
}
