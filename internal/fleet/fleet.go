// Package fleet shards the benchmark suite across a coordinator and a
// fleet of workers, tolerating worker death, network partitions and
// result corruption without giving up bit-identical output.
//
// The shape follows the proven task-scheduler pattern: workers register
// with the coordinator and heartbeat on an interval; the coordinator
// slices the suite into leased cells, granted frame by frame so each
// worker keeps one benchmark's prepared frame until its cells run out,
// reassigns leases when heartbeats lapse, quarantines cells that exhaust
// a bounded retry budget, and lets idle workers steal from slow ones.
// Results travel with a checksum and land in the content-addressed
// shared store (internal/sim.Store); after the last cell settles the
// coordinator renders the experiment tables entirely from the store,
// byte-identical to a serial run.
package fleet

import (
	"encoding/json"
	"time"

	"dtexl/internal/sim"
)

// Protocol endpoints, mounted by Coordinator.Handler.
const (
	PathRegister  = "/fleet/register"
	PathHeartbeat = "/fleet/heartbeat"
	PathLease     = "/fleet/lease"
	PathComplete  = "/fleet/complete"
	PathFail      = "/fleet/fail"
	PathStats     = "/fleet/stats"
)

// RegisterRequest announces a worker. Names are labels, not identities:
// re-registering after a partition or failover yields a fresh worker ID.
// Held carries the worker's in-flight leases so a registration across a
// coordinator epoch can resume them (lease-token continuity) instead of
// burning retry budget on work that is still running.
type RegisterRequest struct {
	Name string      `json:"name"`
	Held []HeldLease `json:"held,omitempty"`
}

// HeldLease is one in-flight lease a re-registering worker presents for
// adoption.
type HeldLease struct {
	LeaseID string       `json:"lease_id"`
	Cell    sim.CellSpec `json:"cell"`
	// Epoch is the coordinator epoch that granted the lease; informative
	// only — adoption matches on lease ID + cell.
	Epoch uint64 `json:"epoch,omitempty"`
}

// RegisterResponse hands the worker its identity and the suite contract:
// the exact simulation options every cell key derives from, the
// heartbeat interval the coordinator expects, and the coordinator's
// fencing epoch the worker must echo on heartbeats and lease requests.
// Resumed lists the held lease IDs the coordinator adopted.
type RegisterResponse struct {
	WorkerID            string      `json:"worker_id"`
	Epoch               uint64      `json:"epoch,omitempty"`
	Resumed             []string    `json:"resumed,omitempty"`
	HeartbeatIntervalMS int64       `json:"heartbeat_interval_ms"`
	Options             sim.Options `json:"options"`
}

// HeartbeatRequest renews a worker's liveness. A 410 response means the
// coordinator has written the worker off (heartbeat lapse); a 409 means
// the epoch is stale (a failover happened). Either way the worker must
// re-register before taking more work.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	Epoch    uint64 `json:"epoch,omitempty"`
}

// LeaseRequest asks for one cell of work. A stale epoch is refused with
// 409: grants never cross epochs.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	Epoch    uint64 `json:"epoch,omitempty"`
}

// LeaseResponse is the coordinator's answer to a lease request: exactly
// one of Done, Idle, or a granted lease.
type LeaseResponse struct {
	// Done: every cell has settled (completed or quarantined); the worker
	// should exit.
	Done bool `json:"done,omitempty"`
	// Idle: nothing leasable right now (all remaining cells are held by
	// live workers not yet stealable); poll again after RetryMS.
	Idle    bool  `json:"idle,omitempty"`
	RetryMS int64 `json:"retry_ms,omitempty"`

	LeaseID string       `json:"lease_id,omitempty"`
	Cell    sim.CellSpec `json:"cell,omitempty"`
	// Stolen marks a work-stealing lease: another worker still holds an
	// older lease on the same cell, and the first valid result wins.
	Stolen bool `json:"stolen,omitempty"`
}

// CompleteRequest reports a finished cell. Result is the raw simResult
// JSON exactly as the worker encoded it, and Sum its CRC-64 (ECMA)
// checksum — the coordinator verifies the pair before admitting the
// bytes to the store, so a payload corrupted in transit is rejected and
// the cell retried rather than served wrong.
type CompleteRequest struct {
	WorkerID string          `json:"worker_id"`
	LeaseID  string          `json:"lease_id"`
	Cell     sim.CellSpec    `json:"cell"`
	Result   json.RawMessage `json:"result"`
	Sum      string          `json:"sum"`
}

// FailRequest reports a cell whose computation errored. The coordinator
// releases the lease and either retries the cell (within the retry
// budget) or quarantines it.
type FailRequest struct {
	WorkerID string       `json:"worker_id"`
	LeaseID  string       `json:"lease_id"`
	Cell     sim.CellSpec `json:"cell"`
	Error    string       `json:"error"`
}

// Stats is the GET /fleet/stats body: the live picture of the sweep.
type Stats struct {
	// Epoch and NodeID identify which coordinator generation is
	// answering — the CI failover check asserts the epoch bumped.
	Epoch  uint64 `json:"epoch,omitempty"`
	NodeID string `json:"node_id,omitempty"`

	// Cell accounting. Done includes StorePrimed; Cells = Done + Pending +
	// Leased + Quarantined.
	Cells       int `json:"cells"`
	Done        int `json:"done"`
	Pending     int `json:"pending"`
	Leased      int `json:"leased"`
	Quarantined int `json:"quarantined"`
	// StorePrimed counts cells already valid in the shared store when the
	// coordinator started (a resumed sweep).
	StorePrimed int `json:"store_primed"`

	// Failure-handling counters.
	Reassigned      int `json:"reassigned"`
	Stolen          int `json:"stolen"`
	RejectedResults int `json:"rejected_results"`
	LateResults     int `json:"late_results"`

	SuiteDone bool `json:"suite_done"`

	Workers          []WorkerStats     `json:"workers"`
	Reassignments    []Reassignment    `json:"reassignments,omitempty"`
	QuarantinedCells []QuarantinedCell `json:"quarantined_cells,omitempty"`

	Store sim.StoreStats `json:"store"`
}

// WorkerStats is one worker's row in Stats.
type WorkerStats struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	Live         bool   `json:"live"`
	ActiveLeases int    `json:"active_leases"`
	Completed    int    `json:"completed"`
	LastBeatMS   int64  `json:"last_beat_ms"`
}

// Reassignment records one lease the coordinator took back — the
// auditable trail behind the Reassigned counter.
type Reassignment struct {
	Cell    string `json:"cell"`
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker"`
	Reason  string `json:"reason"` // "heartbeat_lapse", "failure", "rejected_result"
}

// QuarantinedCell is one poison cell: it exhausted the retry budget and
// was taken out of the sweep so it cannot wedge the fleet.
type QuarantinedCell struct {
	Cell     string   `json:"cell"`
	Attempts int      `json:"attempts"`
	Errors   []string `json:"errors,omitempty"`
}

// Defaults for CoordinatorConfig.
const (
	DefaultHeartbeatInterval = 1 * time.Second
	DefaultRetryBudget       = 5
	DefaultStealAfter        = 2 * time.Minute
)
