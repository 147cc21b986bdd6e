package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dtexl/internal/durable"
)

// SnapshotName is the coordinator's snapshot in the shared store
// directory: one durable record, replaced whole each interval. It does
// not end in .json: the store's GC and corruption tooling only touch
// *.json entries, so the snapshot is invisible to them.
const SnapshotName = "coordinator.snapshot"

// SnapshotState is the coordinator's authoritative mutable state — the
// part a standby cannot rebuild from the store alone. Completion is NOT
// here: done-ness is always re-derived by scanning the store, which is
// the ground truth for results. The snapshot carries what would
// otherwise be lost with the primary: retry accounting, quarantine
// decisions, failure-event counters, and the set of in-flight leases.
type SnapshotState struct {
	Epoch         uint64 `json:"epoch"`
	NodeID        string `json:"node_id,omitempty"`
	Seq           int    `json:"seq"`
	TakenUnixNano int64  `json:"taken_unix_nano"`

	Reassigned      int            `json:"reassigned"`
	Stolen          int            `json:"stolen"`
	RejectedResults int            `json:"rejected_results"`
	LateResults     int            `json:"late_results"`
	Reassignments   []Reassignment `json:"reassignments,omitempty"`

	// Cells holds only cells with history (attempts, errors or
	// quarantine); pristine pending cells are implicit.
	Cells []SnapshotCell `json:"cells,omitempty"`
	// Leases are the in-flight grants at snapshot time.
	Leases []SnapshotLease `json:"leases,omitempty"`
}

// SnapshotCell is one cell's retry/quarantine history.
type SnapshotCell struct {
	ID          string   `json:"id"`
	Attempts    int      `json:"attempts"`
	Quarantined bool     `json:"quarantined,omitempty"`
	Errors      []string `json:"errors,omitempty"`
}

// SnapshotLease is one in-flight lease. On restore it is re-created
// under its original worker ID (a "ghost" until that worker re-registers
// and adopts it), so either the worker resumes the lease token with no
// retry-budget charge, or the ordinary heartbeat-lapse machinery
// reclaims the cell.
type SnapshotLease struct {
	ID              string `json:"id"`
	Worker          string `json:"worker"`
	WorkerName      string `json:"worker_name,omitempty"`
	Cell            string `json:"cell"`
	GrantedUnixNano int64  `json:"granted_unix_nano"`
	Stolen          bool   `json:"stolen,omitempty"`
}

// Snapshot captures the coordinator's authoritative state for the HA
// snapshot.
func (c *Coordinator) Snapshot() *SnapshotState {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &SnapshotState{
		Epoch:           c.cfg.Epoch,
		NodeID:          c.cfg.NodeID,
		Seq:             c.seq,
		TakenUnixNano:   c.cfg.now().UnixNano(),
		Reassigned:      c.reassigned,
		Stolen:          c.stolen,
		RejectedResults: c.rejectedResults,
		LateResults:     c.lateResults,
		Reassignments:   append([]Reassignment(nil), c.reassignments...),
	}
	for _, cl := range c.cells {
		if cl.attempts == 0 && len(cl.errors) == 0 && cl.state != cellQuarantined {
			continue
		}
		s.Cells = append(s.Cells, SnapshotCell{
			ID:          cl.spec.ID(),
			Attempts:    cl.attempts,
			Quarantined: cl.state == cellQuarantined,
			Errors:      append([]string(nil), cl.errors...),
		})
	}
	for _, l := range c.leases {
		sl := SnapshotLease{
			ID:              l.id,
			Worker:          l.worker,
			Cell:            l.cell.spec.ID(),
			GrantedUnixNano: l.granted.UnixNano(),
			Stolen:          l.stolen,
		}
		if w := c.workers[l.worker]; w != nil {
			sl.WorkerName = w.name
		}
		s.Leases = append(s.Leases, sl)
	}
	return s
}

// restoreLocked applies a snapshot to a freshly built coordinator. The
// store scan has already run, so any cell the store holds stays done —
// the store outranks the snapshot. In-flight leases come back under
// ghost workerState entries stamped live now: a returning worker adopts
// its lease token via register (no retry-budget charge), and a worker
// that never returns is reclaimed by the ordinary heartbeat lapse.
func (c *Coordinator) restoreLocked(s *SnapshotState, now time.Time) {
	if s.Seq > c.seq {
		c.seq = s.Seq
	}
	c.reassigned = s.Reassigned
	c.stolen = s.Stolen
	c.rejectedResults = s.RejectedResults
	c.lateResults = s.LateResults
	c.reassignments = append([]Reassignment(nil), s.Reassignments...)
	for _, sc := range s.Cells {
		cl := c.byID[sc.ID]
		if cl == nil {
			continue // suite shape changed; ignore unknown cells
		}
		cl.attempts = sc.Attempts
		cl.errors = append([]string(nil), sc.Errors...)
		if cl.state == cellDone {
			continue // store result outranks snapshot state
		}
		if sc.Quarantined {
			cl.state = cellQuarantined
			c.settled++
		}
	}
	for _, sl := range s.Leases {
		cl := c.byID[sl.Cell]
		if cl == nil || cl.state == cellDone || cl.state == cellQuarantined {
			continue
		}
		w := c.workers[sl.Worker]
		if w == nil {
			w = &workerState{
				id:       sl.Worker,
				name:     sl.WorkerName,
				lastBeat: now,
				leases:   make(map[string]*lease),
			}
			c.workers[sl.Worker] = w
		}
		l := &lease{
			id:      sl.ID,
			worker:  sl.Worker,
			cell:    cl,
			granted: time.Unix(0, sl.GrantedUnixNano),
			stolen:  sl.Stolen,
		}
		c.leases[l.id] = l
		w.leases[l.id] = l
		cl.leases[l.id] = l
		cl.state = cellLeased
	}
	c.cfg.Logf("fleet: restored snapshot from epoch %d: %d cell record(s), %d in-flight lease(s)",
		s.Epoch, len(s.Cells), len(s.Leases))
	c.checkDoneLocked()
}

// WriteSnapshot replaces dir's snapshot with s as one record written
// whole, so a failover reads this snapshot or the previous one.
func WriteSnapshot(dir string, s *SnapshotState) error {
	return durable.WriteRecord(filepath.Join(dir, SnapshotName), nil, s)
}

// LoadSnapshot returns dir's snapshot, or (nil, nil) when there is none.
// A snapshot that fails verification is an error and loads as nil: the
// store replay covers whatever it knew about completions, and only its
// retry accounting, quarantine verdicts and in-flight leases restart.
func LoadSnapshot(dir string) (*SnapshotState, error) {
	var s SnapshotState
	_, err := durable.ReadRecord(filepath.Join(dir, SnapshotName), &s)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: snapshot: %w", err)
	}
	return &s, nil
}
