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

	regMu sync.Mutex // serializes registrations; held across the register POST

	mu    sync.Mutex   // guards reg and epIdx
	reg   registration // the current identity
	epIdx int          // current coordinator endpoint

	silent    atomic.Bool  // partition injection: drop heartbeats
	completed atomic.Int64 // cells finished (late reports included)
}

// registration is one identity a coordinator handed the worker. n
// counts the worker's registrations, so two never compare equal even
// when a restarted coordinator reissues a worker ID.
type registration struct {
	n     int
	id    string
	epoch uint64
	beat  time.Duration
}

// identity returns the current registration.
func (w *Worker) identity() registration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reg
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

// WorkerStatus is the /workerz view of a worker.
type WorkerStatus struct {
	Name        string `json:"name"`
	WorkerID    string `json:"worker_id"`
	Coordinator string `json:"coordinator"`
	Completed   int64  `json:"completed"`
	Partitioned bool   `json:"partitioned"`
}

// Status returns the worker's view for health endpoints. Safe to call
// concurrently with Run.
func (w *Worker) Status() WorkerStatus {
	return WorkerStatus{
		Name:        w.cfg.Name,
		WorkerID:    w.identity().id,
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
	if err := w.register(ctx, 0); err != nil {
		return err
	}

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx)

	for {
		reg := w.identity()
		var resp LeaseResponse
		status, err := w.post(ctx, PathLease, LeaseRequest{WorkerID: reg.id, Epoch: reg.epoch}, &resp)
		if err != nil {
			return fmt.Errorf("fleet: worker %s: lease: %w", w.cfg.Name, err)
		}
		if status == http.StatusGone || status == http.StatusConflict {
			if err := w.register(ctx, reg.n); err != nil {
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
				wait = reg.beat
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		default:
			w.workCell(ctx, resp)
		}
	}
}

// workCell computes one leased cell and reports the outcome under the
// worker's identity at report time: a failover mid-compute may have
// re-registered the worker, and its old ID may name another worker at
// the successor. Errors in reporting are logged, not fatal: the
// coordinator's lease machinery recovers the cell either way.
func (w *Worker) workCell(ctx context.Context, l LeaseResponse) {
	w.cfg.Logf("fleet: worker %s: cell %s (lease %s, stolen=%v)", w.cfg.Name, l.Cell.ID(), l.LeaseID, l.Stolen)
	// Hold only the prepared frame this cell reads: the coordinator
	// leases frame by frame, so the frame dropped here is one this
	// worker is done with.
	w.runner.KeepFrameOf(l.Cell)
	res, err := w.runner.RunCell(ctx, l.Cell)
	if err != nil {
		w.cfg.Logf("fleet: worker %s: cell %s failed: %v", w.cfg.Name, l.Cell.ID(), err)
		if _, perr := w.post(ctx, PathFail, FailRequest{
			WorkerID: w.identity().id, LeaseID: l.LeaseID, Cell: l.Cell, Error: err.Error(),
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
	status, err := w.post(ctx, PathComplete, CompleteRequest{
		WorkerID: w.identity().id, LeaseID: l.LeaseID, Cell: l.Cell, Result: b, Sum: sum,
	}, nil)
	if err != nil {
		w.cfg.Logf("fleet: worker %s: complete report lost for cell %s: %v", w.cfg.Name, l.Cell.ID(), err)
		return
	}
	if status != http.StatusOK {
		w.cfg.Logf("fleet: worker %s: coordinator refused result for cell %s (status %d)", w.cfg.Name, l.Cell.ID(), status)
	}
}

// register announces the worker and builds the runner from the
// coordinator's suite options on first success. refused is the number
// of the registration the coordinator turned away (0 before the first):
// if another loop has already replaced it, register returns at once.
// The heartbeat loop and the work loop can both be refused for one
// identity; after a failover the heartbeat's retried request, still
// carrying the old ID, reaches the successor after the work loop has
// re-registered. Under regMu one refusal gets one registration, and no
// orphan identity is left at the coordinator.
func (w *Worker) register(ctx context.Context, refused int) error {
	w.regMu.Lock()
	defer w.regMu.Unlock()
	if w.identity().n != refused {
		return nil
	}
	var resp RegisterResponse
	status, err := w.post(ctx, PathRegister, RegisterRequest{Name: w.cfg.Name}, &resp)
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
	w.reg = registration{n: refused + 1, id: resp.WorkerID, epoch: resp.Epoch, beat: beat}
	w.mu.Unlock()
	w.runnerOnce.Do(func() { w.runner = w.cfg.NewRunner(resp.Options) })
	w.cfg.Logf("fleet: worker %s: registered as %s (epoch %d, heartbeat %v)",
		w.cfg.Name, resp.WorkerID, resp.Epoch, beat)
	return nil
}

// heartbeatLoop renews liveness every interval. A 410 (written off) or
// 409 (stale epoch after a failover) re-registers from here, so a worker
// deep in a long compute is live at the coordinator again before its
// work loop next asks for a lease.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(w.identity().beat)
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
		reg := w.identity()
		status, err := w.post(ctx, PathHeartbeat, HeartbeatRequest{WorkerID: reg.id, Epoch: reg.epoch}, nil)
		if err != nil {
			w.cfg.Logf("fleet: worker %s: heartbeat lost: %v", w.cfg.Name, err)
			continue
		}
		if status == http.StatusGone || status == http.StatusConflict {
			w.cfg.Logf("fleet: worker %s: heartbeat of %s rejected (status %d)", w.cfg.Name, reg.id, status)
			if err := w.register(ctx, reg.n); err != nil {
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
