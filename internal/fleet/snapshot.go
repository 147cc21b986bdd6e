package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dtexl/internal/sim"
)

// SnapshotLogName is the append-only snapshot log the coordinator keeps
// in the shared store directory. It deliberately does not end in .json:
// the store's GC and corruption tooling only touch *.json entries, so
// the log is invisible to them.
const SnapshotLogName = "coordinator.snaplog"

// snaplogCompactAt bounds the log: once an append would push the file
// past this size it is rewritten to hold only the newest record.
const snaplogCompactAt = 1 << 20

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
// snapshot log.
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

// AppendSnapshot appends one checksummed record to the snapshot log in
// dir, fsync'd so a later failover can trust what it reads. Each line is
// "<crc64hex>\t<json>"; a torn tail (crash mid-append) fails the
// checksum and LoadSnapshot falls back to the previous record. When the
// log would outgrow the compaction bound it is rewritten to hold only
// this record, atomically.
func AppendSnapshot(dir string, s *SnapshotState) error {
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("fleet: snapshot encode: %w", err)
	}
	line := sim.ResultSum(b) + "\t" + string(b) + "\n"
	path := filepath.Join(dir, SnapshotLogName)
	if fi, err := os.Stat(path); err == nil && fi.Size()+int64(len(line)) > snaplogCompactAt {
		return sim.WriteFileAtomic(path, []byte(line))
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("fleet: snapshot log: %w", err)
	}
	if _, err := f.WriteString(line); err != nil {
		f.Close()
		return fmt.Errorf("fleet: snapshot append: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("fleet: snapshot fsync: %w", err)
	}
	return f.Close()
}

// LoadSnapshot returns the newest checksum-valid record in dir's
// snapshot log, or (nil, nil) when the log is missing or holds no valid
// record. Invalid lines — torn tails, bit rot — are skipped, not fatal:
// the store replay covers whatever a lost snapshot knew about
// completions, and retry accounting degrades to the older record.
func LoadSnapshot(dir string) (*SnapshotState, error) {
	f, err := os.Open(filepath.Join(dir, SnapshotLogName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("fleet: snapshot log: %w", err)
	}
	defer f.Close()
	var latest *SnapshotState
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		sum, body, ok := strings.Cut(sc.Text(), "\t")
		if !ok || sim.ResultSum([]byte(body)) != sum {
			continue // torn or corrupt record
		}
		var s SnapshotState
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			continue
		}
		latest = &s
	}
	if err := sc.Err(); err != nil {
		return latest, fmt.Errorf("fleet: snapshot log read: %w", err)
	}
	return latest, nil
}
