package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dtexl/internal/durable"
)

// Store is the content-addressed result store: the one place completed
// simulations persist, for a resumed run (dtexlbench -store), a
// restarted server (dtexld -store) and a fleet sharing the directory.
// Each completed simulation is one file under the store directory,
// named by the SHA-256 of its canonical simKey bytes (the effective
// machine configuration plus workload identity, exactly the in-memory
// memo key), holding one durable record: the canonical key bytes and
// the label-independent result JSON guarded by a CRC-64 checksum.
//
// The store is safe for concurrent use by many processes sharing the
// directory: writes go through durable.WriteFile, so readers never
// observe a torn entry, and two workers recording the same cell write
// byte-identical content in either order. A process killed mid-write
// leaves at most a ".tmp-" file, which Len and lookups ignore and GC,
// which OpenStore runs, reaps once it is an hour old. Reads verify both
// the checksum and the stored key bytes; a corrupt entry (bit rot,
// truncation, injected fault) is dropped and reported as a miss, so the
// cell is recomputed — and the recompute's record repairs the entry in
// place. Results round-trip bit-identically through JSON (Go's float64
// encoding is exact), so a cell served from the store renders
// byte-for-byte the same output as a cell computed live.
//
// The store is the L2 of the Runner's lookup: single-flight memo (L1,
// per process) → store (L2, per directory) → compute.
type Store struct {
	dir string
	// Logf, when non-nil, replaces the standard logger for corruption
	// warnings. Set before concurrent use.
	Logf func(format string, args ...any)

	mu          sync.Mutex
	hits        uint64
	misses      uint64
	corrupt     uint64
	repaired    uint64
	corruptKeys map[string]bool // entry name → dropped as corrupt, awaiting repair
}

// StoreStats is a snapshot of the store's counters.
type StoreStats struct {
	// Hits and Misses count lookups served and not served.
	Hits, Misses uint64
	// CorruptDropped counts entries that failed checksum or key
	// verification and were removed (each also counts as a miss).
	CorruptDropped uint64
	// Repaired counts records that replaced a previously dropped corrupt
	// entry.
	Repaired uint64
}

// OpenStore opens (creating if needed) a shared result store rooted at
// dir. It runs GC with the zero policy, which evicts nothing but reaps
// the temp files crashed writers left there.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sim: result store dir: %w", err)
	}
	s := &Store{dir: dir, corruptKeys: make(map[string]bool)}
	if _, err := s.GC(GCPolicy{}, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// simKeyBytes renders the canonical identity of a simulation — the bytes
// the store's content address and the fleet protocol key on.
// Struct-field order makes json.Marshal deterministic for identical
// keys.
func simKeyBytes(key simKey) ([]byte, error) {
	return json.Marshal(key)
}

// entryName returns the content address of a key: SHA-256 over the
// canonical key bytes.
func entryName(keyBytes []byte) string {
	h := sha256.Sum256(keyBytes)
	return hex.EncodeToString(h[:])
}

func (s *Store) path(name string) string {
	return filepath.Join(s.dir, name+".json")
}

func (s *Store) warnf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// lookup returns the stored result for key, verifying the checksum and
// key bytes. A corrupt entry is removed (so the recompute repairs it),
// counted and reported as a miss. count selects whether the hit/miss
// counters move.
func (s *Store) lookup(key simKey, count bool) (*simResult, bool) {
	keyBytes, err := simKeyBytes(key)
	if err != nil {
		return nil, false
	}
	name := entryName(keyBytes)
	miss := func() (*simResult, bool) {
		if count {
			s.mu.Lock()
			s.misses++
			s.mu.Unlock()
		}
		return nil, false
	}
	reject := func(reason string) (*simResult, bool) {
		os.Remove(s.path(name))
		s.mu.Lock()
		s.corrupt++
		s.corruptKeys[name] = true
		s.mu.Unlock()
		s.warnf("sim: store %s: dropped corrupt entry %s (%s); the cell will be recomputed", s.dir, name[:12], reason)
		return miss()
	}
	var res simResult
	stored, err := durable.ReadRecord(s.path(name), &res)
	if errors.Is(err, durable.ErrCorrupt) {
		return reject(err.Error())
	}
	if err != nil {
		return miss()
	}
	if !bytes.Equal(stored, keyBytes) {
		return reject("key bytes do not match the content address")
	}
	if res.Metrics == nil {
		return reject("result has no metrics")
	}
	if count {
		s.mu.Lock()
		s.hits++
		s.mu.Unlock()
	}
	return &res, true
}

// record persists one result, written whole so concurrent writers and
// a crash mid-write never leave a torn entry under the final name.
// Failures are returned, not fatal: a missed record only costs a
// deterministic recompute later.
func (s *Store) record(key simKey, result any) error {
	keyBytes, err := simKeyBytes(key)
	if err != nil {
		return fmt.Errorf("sim: store key: %w", err)
	}
	name := entryName(keyBytes)
	if err := durable.WriteRecord(s.path(name), keyBytes, result); err != nil {
		return fmt.Errorf("sim: store entry: %w", err)
	}
	s.mu.Lock()
	if s.corruptKeys[name] {
		delete(s.corruptKeys, name)
		s.repaired++
	}
	s.mu.Unlock()
	return nil
}

// RecordCellResult verifies and persists a result payload produced by a
// fleet worker for the given suite cell: the raw bytes must parse as a
// complete result, and they are stored exactly as received so the
// worker's float encoding is preserved bit for bit. When the store
// already holds a valid entry for the cell — a worker sharing the
// directory has just recorded the same deterministic bytes — nothing
// is written.
func (s *Store) RecordCellResult(opt Options, c CellSpec, resultBytes []byte) error {
	var res simResult
	if err := json.Unmarshal(resultBytes, &res); err != nil || res.Metrics == nil {
		return fmt.Errorf("sim: store: cell %s result does not parse: %v", c.ID(), err)
	}
	key, _, err := cellKey(opt, c)
	if err != nil {
		return err
	}
	if _, ok := s.lookup(key, false); ok {
		return nil
	}
	return s.record(key, json.RawMessage(resultBytes))
}

// HasCell reports whether the store holds a valid result for the suite
// cell under the given options — the coordinator's resume scan. Corrupt
// entries found during the scan are dropped (and the cell reported
// absent) so the fleet recomputes them.
func (s *Store) HasCell(opt Options, c CellSpec) bool {
	key, _, err := cellKey(opt, c)
	if err != nil {
		return false
	}
	_, ok := s.lookup(key, false)
	return ok
}

// Stats snapshots the store's counters. Safe to call concurrently.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Hits: s.hits, Misses: s.misses, CorruptDropped: s.corrupt, Repaired: s.repaired}
}

// Len counts the entries currently on disk (excluding in-flight temp
// files). It lists the directory, so any store path works, glob
// metacharacters included.
func (s *Store) Len() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("sim: store len: %w", err)
	}
	n := 0
	for _, de := range ents {
		// As in GC: the coordinator's snapshot and claims have no .json
		// suffix.
		if fn := de.Name(); strings.HasSuffix(fn, ".json") && !strings.HasPrefix(fn, durable.TempPrefix) {
			n++
		}
	}
	return n, nil
}

// GCPolicy bounds the store's disk footprint. Zero fields are
// unbounded: the zero policy makes GC a no-op scan.
type GCPolicy struct {
	// MaxBytes evicts oldest-first until the entries total at most this
	// many bytes (pinned entries are never evicted and still count
	// toward the total).
	MaxBytes int64
	// MaxAge evicts entries whose file modification time is older than
	// this, regardless of the size budget.
	MaxAge time.Duration
}

// GCStats reports one GC sweep.
type GCStats struct {
	Scanned    int   // entries examined
	Evicted    int   // entries removed
	Pinned     int   // entries spared by the pin set
	BytesFreed int64 // total size of evicted entries
	BytesKept  int64 // total size of surviving entries
}

// SweepEntryNames returns the entry names (content addresses) of every
// cell in the suite sweep described by opt — the pin set a coordinator
// passes to GC so that a live sweep's results are never evicted out
// from under it (see TestStoreGCKeepsLiveSweep).
func SweepEntryNames(opt Options) (map[string]bool, error) {
	pins := make(map[string]bool)
	for _, c := range SuiteCells(opt) {
		key, _, err := cellKey(opt, c)
		if err != nil {
			return nil, err
		}
		kb, err := simKeyBytes(key)
		if err != nil {
			return nil, err
		}
		pins[entryName(kb)] = true
	}
	return pins, nil
}

// GC removes entries to enforce pol, never touching entries named in
// pinned. Eviction is oldest-modification-first, so under a size bound
// the least recently written results go first; a concurrent writer can
// re-record any evicted entry (eviction only costs a deterministic
// recompute, exactly like a corruption drop). Stale temp files from
// crashed writers are also reaped. Safe to run while lookups and
// records proceed: lookup holds no entry open across the remove, and
// a lost race simply reads as a miss.
func (s *Store) GC(pol GCPolicy, pinned map[string]bool) (GCStats, error) {
	var st GCStats
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return st, fmt.Errorf("sim: store gc: %w", err)
	}
	type entry struct {
		name string // content address (no .json)
		size int64
		mod  time.Time
	}
	var live []entry
	now := time.Now()
	for _, de := range ents {
		fn := de.Name()
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent remove/rename
		}
		if strings.HasPrefix(fn, durable.TempPrefix) {
			// A writer holds its temp file only for one write+rename;
			// anything this old is an orphan from a crashed process.
			if now.Sub(info.ModTime()) > time.Hour {
				os.Remove(filepath.Join(s.dir, fn))
			}
			continue
		}
		name, ok := strings.CutSuffix(fn, ".json")
		if !ok {
			continue // the coordinator's snapshot and claims
		}
		live = append(live, entry{name: name, size: info.Size(), mod: info.ModTime()})
	}
	st.Scanned = len(live)
	sort.Slice(live, func(i, j int) bool { return live[i].mod.Before(live[j].mod) })
	var total int64
	for _, e := range live {
		total += e.size
	}
	evict := func(e entry) {
		os.Remove(s.path(e.name))
		st.Evicted++
		st.BytesFreed += e.size
		total -= e.size
	}
	for _, e := range live {
		if pinned[e.name] {
			st.Pinned++
			continue
		}
		tooOld := pol.MaxAge > 0 && now.Sub(e.mod) > pol.MaxAge
		overBudget := pol.MaxBytes > 0 && total > pol.MaxBytes
		if tooOld || overBudget {
			evict(e)
		}
	}
	st.BytesKept = total
	return st, nil
}

// MarshalCellResult renders a completed run as the fleet's wire payload:
// the label-independent result JSON plus its checksum. The coordinator
// verifies the checksum before accepting the result into the store, so a
// payload torn or corrupted in transit is rejected and the cell retried
// rather than served wrong.
func MarshalCellResult(res *RunResult) (resultBytes []byte, sum string, err error) {
	b, err := json.Marshal(&simResult{Metrics: res.Metrics, Energy: res.Energy})
	if err != nil {
		return nil, "", fmt.Errorf("sim: marshal cell result: %w", err)
	}
	return b, durable.Sum(b), nil
}
