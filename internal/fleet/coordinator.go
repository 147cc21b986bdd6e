package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dtexl/internal/durable"
	"dtexl/internal/sim"
)

// CoordinatorConfig sizes the coordinator. Zero fields take the
// package defaults.
type CoordinatorConfig struct {
	// Opt is the suite contract: every cell key derives from it, and
	// registration hands it to workers verbatim.
	Opt sim.Options
	// Store is the shared result store cells complete into. Required.
	Store *sim.Store
	// HeartbeatInterval is what registration tells workers; default 1s.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the lapse after which a worker is written off
	// and its leases reassigned; default 4×HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// RetryBudget bounds lease grants per cell (initial + reassignments);
	// a cell that exhausts it is quarantined, not retried forever.
	// Default 5.
	RetryBudget int
	// StealAfter is the lease age past which an idle worker may steal
	// (double-lease) the cell; default 2m.
	StealAfter time.Duration
	// Epoch is this coordinator's fencing epoch under HA. Grants and
	// heartbeats carrying a different non-zero epoch are rejected as
	// stale; completions and failure reports are accepted at any epoch
	// (results are checksummed and idempotent), and the worker and
	// lease IDs they name carry the epoch (nextIDLocked). Zero means
	// epochs are not enforced (single-coordinator deployments).
	Epoch uint64
	// NodeID labels this coordinator process in stats.
	NodeID string
	// Logf, when non-nil, receives one line per fleet event.
	Logf func(format string, args ...any)

	now func() time.Time // test hook; time.Now when nil
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 4 * c.HeartbeatInterval
	}
	if c.RetryBudget < 1 {
		c.RetryBudget = DefaultRetryBudget
	}
	if c.StealAfter <= 0 {
		c.StealAfter = DefaultStealAfter
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Cell lease lifecycle.
type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
	cellQuarantined
)

type cell struct {
	spec     sim.CellSpec
	state    cellState
	attempts int      // lease grants from pending (steals excluded)
	errors   []string // failure reports, newest last (capped)
	// leases are the cell's active leases, >1 only while stolen.
	// Reports look their lease up here, not in Coordinator.leases: a
	// lease ID counts only together with its cell, since a report from
	// an earlier epoch can name an ID reissued on another cell.
	leases map[string]*lease
}

type lease struct {
	id      string
	worker  string
	cell    *cell
	granted time.Time
	stolen  bool
}

type workerState struct {
	id        string
	name      string
	lastBeat  time.Time
	gone      bool
	leases    map[string]*lease
	completed int
	bench     string // benchmark of the latest grant: the frame the worker holds
}

// Coordinator owns the sweep: the cell state machine, worker liveness,
// lease reassignment, stealing and quarantine. All methods are safe for
// concurrent use; mount Handler on an http.Server.
type Coordinator struct {
	cfg CoordinatorConfig

	mu       sync.Mutex
	cells    []*cell
	byID     map[string]*cell
	workers  map[string]*workerState
	leases   map[string]*lease
	seq      int
	scope    string // ID prefix, set at the first grant (nextIDLocked)
	primed   int
	settled  int // done + quarantined
	done     chan struct{}
	doneOnce sync.Once

	reassigned      int
	stolen          int
	rejectedResults int
	lateResults     int
	reassignments   []Reassignment
}

// NewCoordinator builds the coordinator over the suite cells of
// cfg.Opt, resuming from any cells already valid in the shared store.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, fmt.Errorf("fleet: coordinator needs a shared store")
	}
	c := &Coordinator{
		cfg:     cfg,
		byID:    make(map[string]*cell),
		workers: make(map[string]*workerState),
		leases:  make(map[string]*lease),
		done:    make(chan struct{}),
	}
	// A store with no entries primes no cell, so the resume scan (a key
	// hash and a failed open per cell) is skipped.
	n, err := cfg.Store.Len()
	scan := err != nil || n > 0
	for _, spec := range sim.SuiteCells(cfg.Opt) {
		cl := &cell{spec: spec, leases: make(map[string]*lease)}
		// A valid store entry settles the cell before any worker sees
		// it. Corrupt entries are dropped by the scan and recomputed.
		if scan && cfg.Store.HasCell(cfg.Opt, spec) {
			cl.state = cellDone
			c.primed++
			c.settled++
		}
		c.cells = append(c.cells, cl)
		c.byID[spec.ID()] = cl
	}
	if len(c.cells) == 0 {
		return nil, fmt.Errorf("fleet: suite has no cells")
	}
	c.cfg.Logf("fleet: coordinator up (epoch %d): %d cells (%d primed from store), heartbeat %v (timeout %v), retry budget %d, steal after %v",
		cfg.Epoch, len(c.cells), c.primed, cfg.HeartbeatInterval, cfg.HeartbeatTimeout, cfg.RetryBudget, cfg.StealAfter)
	c.checkDoneLocked() // c is not shared yet
	return c, nil
}

// Epoch returns the coordinator's fencing epoch.
func (c *Coordinator) Epoch() uint64 { return c.cfg.Epoch }

// staleEpoch reports whether a request's epoch is from a fenced-off
// coordinator generation. Zero (legacy, or pre-registration) is never
// stale; neither is anything when this coordinator runs without epochs.
func (c *Coordinator) staleEpoch(epoch uint64) bool {
	return c.cfg.Epoch != 0 && epoch != 0 && epoch != c.cfg.Epoch
}

// Done is closed once every cell has settled (completed or
// quarantined).
func (c *Coordinator) Done() <-chan struct{} { return c.done }

func (c *Coordinator) checkDoneLocked() {
	if c.settled == len(c.cells) {
		c.doneOnce.Do(func() {
			c.cfg.Logf("fleet: suite done: %d cells settled", c.settled)
			close(c.done)
		})
	}
}

// expireLocked writes off workers whose heartbeat lapsed and reassigns
// their leases. Called at the top of every handler, so liveness needs
// no background goroutine.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, w := range c.workers {
		if w.gone || now.Sub(w.lastBeat) <= c.cfg.HeartbeatTimeout {
			continue
		}
		w.gone = true
		c.cfg.Logf("fleet: worker %s (%s) heartbeat lapsed (%v); reassigning %d lease(s)",
			w.id, w.name, now.Sub(w.lastBeat).Round(time.Millisecond), len(w.leases))
		for _, l := range w.leases {
			c.releaseLeaseLocked(l, "heartbeat_lapse")
		}
	}
}

// releaseLeaseLocked takes back one lease: the cell returns to pending
// (or quarantine when its retry budget is spent) unless another lease —
// a steal — is still running it.
func (c *Coordinator) releaseLeaseLocked(l *lease, reason string) {
	delete(c.leases, l.id)
	if w := c.workers[l.worker]; w != nil {
		delete(w.leases, l.id)
	}
	cl := l.cell
	delete(cl.leases, l.id)
	if cl.state != cellLeased {
		return // already settled; nothing to reassign
	}
	c.reassigned++
	worker := l.worker
	if w := c.workers[l.worker]; w != nil && w.name != "" {
		worker = fmt.Sprintf("%s (%s)", l.worker, w.name)
	}
	c.reassignments = append(c.reassignments, Reassignment{
		Cell: cl.spec.ID(), LeaseID: l.id, Worker: worker, Reason: reason,
	})
	if len(cl.leases) > 0 {
		return // a stolen lease is still live on this cell
	}
	if cl.attempts >= c.cfg.RetryBudget {
		cl.state = cellQuarantined
		c.settled++
		c.cfg.Logf("fleet: cell %s quarantined after %d attempt(s): %v", cl.spec.ID(), cl.attempts, cl.errors)
		c.checkDoneLocked()
		return
	}
	cl.state = cellPending
	c.cfg.Logf("fleet: cell %s back to pending (%s, attempt %d/%d)", cl.spec.ID(), reason, cl.attempts, c.cfg.RetryBudget)
}

// pendingLocked picks the pending cell to grant w, or nil: the first
// of the benchmark w last leased, else the first of a benchmark no
// other live worker is on, else the first. Every cell of a benchmark
// reads one prepared frame and a worker keeps only the frame of its
// current cell, so a worker stays on its frame until the benchmark runs
// out and a sweep prepares each frame about once.
func (c *Coordinator) pendingLocked(w *workerState) *cell {
	taken := make(map[string]bool, len(c.workers))
	for _, o := range c.workers {
		if o != w && !o.gone {
			taken[o.bench] = true
		}
	}
	var free, first *cell
	for _, cl := range c.cells {
		if cl.state != cellPending {
			continue
		}
		if cl.spec.Bench == w.bench {
			return cl
		}
		if free == nil && !taken[cl.spec.Bench] {
			free = cl
		}
		if first == nil {
			first = cl
		}
	}
	if free != nil {
		return free
	}
	return first
}

// nextIDLocked returns the next worker (kind 'w') or lease (kind 'l')
// ID, numbered in grant order and scoped to this coordinator: by its
// epoch under HA ("e2.l5"), otherwise by the clock at its first grant,
// in base 36 ("i<nanoseconds>.l5"). Reports carry no epoch and are
// accepted at any epoch, so without the scope a report from an earlier
// coordinator over the same store, delivered after a failover or
// retried across a restart, would name the lease this coordinator
// granted under the same number on the same cell, and release it.
func (c *Coordinator) nextIDLocked(kind byte, now time.Time) string {
	if c.scope == "" {
		if c.cfg.Epoch != 0 {
			c.scope = fmt.Sprintf("e%d.", c.cfg.Epoch)
		} else {
			c.scope = "i" + strconv.FormatInt(now.UnixNano(), 36) + "."
		}
	}
	c.seq++
	return c.scope + string(kind) + strconv.Itoa(c.seq)
}

// register admits a worker under a fresh ID and hands it the suite
// contract. Registration is always accepted, whatever epoch the worker
// last saw: it is exactly how a worker crosses a failover.
func (c *Coordinator) register(req RegisterRequest) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)
	w := &workerState{
		id:       c.nextIDLocked('w', now),
		name:     req.Name,
		lastBeat: now,
		leases:   make(map[string]*lease),
	}
	c.workers[w.id] = w
	c.cfg.Logf("fleet: worker %s registered as %s (epoch %d)", req.Name, w.id, c.cfg.Epoch)
	return RegisterResponse{
		WorkerID:            w.id,
		Epoch:               c.cfg.Epoch,
		HeartbeatIntervalMS: c.cfg.HeartbeatInterval.Milliseconds(),
		Options:             c.cfg.Opt,
	}
}

// heartbeat renews liveness. ok=false means the worker is unknown or
// already written off and must re-register; stale=true means the
// request carried a fenced-off epoch.
func (c *Coordinator) heartbeat(workerID string, epoch uint64) (ok, stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.staleEpoch(epoch) {
		return false, true
	}
	now := c.cfg.now()
	c.expireLocked(now)
	w := c.workers[workerID]
	if w == nil || w.gone {
		return false, false
	}
	w.lastBeat = now
	return true, false
}

// lease grants one cell to the worker: a pending cell by pendingLocked's
// frame rule, and failing that a steal of the oldest over-age lease.
// The grant's benchmark becomes the worker's. ok=false means the worker
// must re-register; stale=true means the grant was refused because the
// request carried a fenced-off epoch (grants are never issued across
// epochs — that is the fencing rule that keeps a partitioned old
// primary's workers from double-leasing cells).
func (c *Coordinator) lease(workerID string, epoch uint64) (resp LeaseResponse, ok, stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.staleEpoch(epoch) {
		return LeaseResponse{}, false, true
	}
	now := c.cfg.now()
	c.expireLocked(now)
	w := c.workers[workerID]
	if w == nil || w.gone {
		return LeaseResponse{}, false, false
	}
	w.lastBeat = now // asking for work proves liveness

	if c.settled == len(c.cells) {
		return LeaseResponse{Done: true}, true, false
	}

	pick := c.pendingLocked(w)
	stolen := false
	if pick == nil {
		// No pending work: steal the oldest over-age lease not our own
		// and not already double-leased.
		var victim *lease
		for _, l := range c.leases {
			if l.worker == workerID || now.Sub(l.granted) < c.cfg.StealAfter {
				continue
			}
			if len(l.cell.leases) > 1 {
				continue
			}
			if victim == nil || l.granted.Before(victim.granted) {
				victim = l
			}
		}
		if victim == nil {
			return LeaseResponse{Idle: true, RetryMS: c.cfg.HeartbeatInterval.Milliseconds()}, true, false
		}
		pick, stolen = victim.cell, true
	}

	l := &lease{id: c.nextIDLocked('l', now), worker: workerID, cell: pick, granted: now, stolen: stolen}
	c.leases[l.id] = l
	w.leases[l.id] = l
	w.bench = pick.spec.Bench
	pick.leases[l.id] = l
	if stolen {
		c.stolen++
		c.cfg.Logf("fleet: worker %s steals cell %s (lease %s)", workerID, pick.spec.ID(), l.id)
	} else {
		pick.state = cellLeased
		pick.attempts++
		c.cfg.Logf("fleet: worker %s leases cell %s (lease %s, attempt %d)", workerID, pick.spec.ID(), l.id, pick.attempts)
	}
	return LeaseResponse{LeaseID: l.id, Cell: pick.spec, Stolen: stolen}, true, false
}

// complete admits one result. The checksum and payload are verified
// and the store entry written (unless a valid one is already there)
// before c.mu is taken, so leases and heartbeats never wait on the
// disk; a bad payload counts as a failure of the lease. Late or
// duplicate completions — a reassigned worker finishing anyway, the
// loser of a steal race, a partitioned worker reporting after
// re-registration — are accepted idempotently: results are
// deterministic, so the bytes are interchangeable.
func (c *Coordinator) complete(req CompleteRequest) error {
	// byID and the cells' specs are fixed at construction.
	cl := c.byID[req.Cell.ID()]
	if cl == nil {
		return fmt.Errorf("unknown cell %q", req.Cell.ID())
	}
	var err error
	if req.Sum != durable.Sum(req.Result) {
		err = fmt.Errorf("result checksum mismatch for cell %q", req.Cell.ID())
	} else {
		err = c.cfg.Store.RecordCellResult(c.cfg.Opt, cl.spec, req.Result)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.now())
	if err != nil {
		c.rejectedResults++
		c.cfg.Logf("fleet: rejected result for cell %s from %s: %v", cl.spec.ID(), req.WorkerID, err)
		if l := cl.leases[req.LeaseID]; l != nil {
			c.releaseLeaseLocked(l, "rejected_result")
		}
		return err
	}

	if w := c.workers[req.WorkerID]; w != nil {
		w.completed++
	}
	if cl.leases[req.LeaseID] == nil || cl.state == cellDone {
		c.lateResults++
		c.cfg.Logf("fleet: late result for cell %s from %s accepted", cl.spec.ID(), req.WorkerID)
	}
	if cl.state != cellDone {
		if cl.state == cellQuarantined {
			// A valid late result un-quarantines the cell: the data is
			// good, so serve it.
			c.cfg.Logf("fleet: quarantined cell %s recovered by late result from %s", cl.spec.ID(), req.WorkerID)
		} else {
			c.settled++
		}
		cl.state = cellDone
		c.checkDoneLocked()
	}
	// Retire every lease on the cell; racing workers' completions land in
	// the late path above.
	for _, l := range cl.leases {
		delete(c.leases, l.id)
		if w := c.workers[l.worker]; w != nil {
			delete(w.leases, l.id)
		}
		delete(cl.leases, l.id)
	}
	return nil
}

// fail records a failure report and releases the lease toward retry or
// quarantine.
func (c *Coordinator) fail(req FailRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.now())
	cl := c.byID[req.Cell.ID()]
	if cl == nil {
		return
	}
	cl.errors = append(cl.errors, req.Error)
	if len(cl.errors) > 4 {
		cl.errors = cl.errors[len(cl.errors)-4:]
	}
	l := cl.leases[req.LeaseID]
	if l == nil {
		return // lease already settled or reassigned; nothing to release
	}
	c.cfg.Logf("fleet: worker %s failed cell %s: %s", req.WorkerID, cl.spec.ID(), req.Error)
	c.releaseLeaseLocked(l, "failure")
}

// Stats returns the live picture of the sweep.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)
	st := Stats{
		Epoch:           c.cfg.Epoch,
		NodeID:          c.cfg.NodeID,
		Cells:           len(c.cells),
		StorePrimed:     c.primed,
		Reassigned:      c.reassigned,
		Stolen:          c.stolen,
		RejectedResults: c.rejectedResults,
		LateResults:     c.lateResults,
		Reassignments:   append([]Reassignment(nil), c.reassignments...),
		Store:           c.cfg.Store.Stats(),
	}
	for _, cl := range c.cells {
		switch cl.state {
		case cellPending:
			st.Pending++
		case cellLeased:
			st.Leased++
		case cellDone:
			st.Done++
		case cellQuarantined:
			st.Quarantined++
			st.QuarantinedCells = append(st.QuarantinedCells, QuarantinedCell{
				Cell: cl.spec.ID(), Attempts: cl.attempts, Errors: append([]string(nil), cl.errors...),
			})
		}
	}
	st.SuiteDone = c.settled == len(c.cells)
	var ids []string
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := c.workers[id]
		st.Workers = append(st.Workers, WorkerStats{
			ID:           w.id,
			Name:         w.name,
			Live:         !w.gone,
			ActiveLeases: len(w.leases),
			Completed:    w.completed,
			LastBeatMS:   now.Sub(w.lastBeat).Milliseconds(),
		})
	}
	return st
}

// RenderExperiments renders the named experiment tables from the shared
// store — blank line between tables, matching `dtexlbench` run per
// experiment — through a fresh store-backed runner. Call after Done();
// every lookup is then an L2 hit and the bytes match a serial run
// exactly.
func (c *Coordinator) RenderExperiments(ids []string, w io.Writer) error {
	r := sim.NewRunner(c.cfg.Opt)
	r.Store = c.cfg.Store
	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := r.RunExperiment(id, w); err != nil {
			return fmt.Errorf("fleet: render %s: %w", id, err)
		}
	}
	return nil
}

// Handler mounts the fleet protocol plus the stats endpoint.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathRegister, func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, http.StatusOK, c.register(req))
	})
	mux.HandleFunc("POST "+PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		ok, stale := c.heartbeat(req.WorkerID, req.Epoch)
		if stale {
			http.Error(w, "stale epoch; re-register", http.StatusConflict)
			return
		}
		if !ok {
			http.Error(w, "unknown worker; re-register", http.StatusGone)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST "+PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, ok, stale := c.lease(req.WorkerID, req.Epoch)
		if stale {
			http.Error(w, "stale epoch; re-register", http.StatusConflict)
			return
		}
		if !ok {
			http.Error(w, "unknown worker; re-register", http.StatusGone)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST "+PathComplete, func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if err := c.complete(req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST "+PathFail, func(w http.ResponseWriter, r *http.Request) {
		var req FailRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		c.fail(req)
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET "+PathStats, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(v); err != nil {
		http.Error(w, "invalid JSON body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
