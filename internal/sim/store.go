package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store is the content-addressed shared result store — the multi-process
// generalization of the per-process checkpoint Journal. Each completed
// simulation is one file under the store directory, named by the SHA-256
// of its canonical simKey bytes (the effective machine configuration plus
// workload identity, exactly the in-memory memo key), holding the
// label-independent result JSON guarded by a CRC-64 checksum.
//
// The store is safe for concurrent use by many processes sharing the
// directory: writes go to a temp file, fsync, then rename, so readers
// never observe a torn entry, and two workers recording the same cell
// write byte-identical content in either order. Reads verify both the
// checksum and the stored key bytes; a corrupt entry (bit rot, torn
// write, injected fault) is dropped and reported as a miss, so the cell
// is recomputed — and the recompute's record repairs the entry in place.
// Results round-trip bit-identically through JSON (the same property the
// Journal relies on), so a cell served from the store renders byte-for-
// byte the same output as a cell computed live.
//
// In the fleet (internal/fleet) the store is the L2 of a three-level
// lookup: Runner's single-flight memo (L1, per process) → shared store
// (L2, per fleet) → compute.
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

// storeEntry is the on-disk envelope: the canonical key bytes, the
// CRC-64 (ECMA) of the raw result bytes, and the result itself.
type storeEntry struct {
	Key    json.RawMessage `json:"key"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// OpenStore opens (creating if needed) a shared result store rooted at
// dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sim: result store dir: %w", err)
	}
	return &Store{dir: dir, corruptKeys: make(map[string]bool)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

var crcTable = crc64.MakeTable(crc64.ECMA)

// ResultSum is the checksum the store and the fleet wire protocol use to
// guard result payloads: CRC-64 (ECMA) over the exact bytes, hex encoded.
func ResultSum(b []byte) string {
	return fmt.Sprintf("%016x", crc64.Checksum(b, crcTable))
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
// key bytes. A corrupt entry is removed (so the recompute repairs it)
// and reported as a miss.
func (s *Store) lookup(key simKey) (*simResult, bool) {
	kb, err := simKeyBytes(key)
	if err != nil {
		return nil, false
	}
	res, ok := s.load(kb, true)
	return res, ok
}

// has reports whether a valid entry exists for the key without counting
// a hit or miss; corrupt entries are still dropped (and counted).
func (s *Store) has(keyBytes []byte) bool {
	_, ok := s.load(keyBytes, false)
	return ok
}

// load reads and verifies one entry. count selects whether the hit/miss
// counters move; corruption always counts.
func (s *Store) load(keyBytes []byte, count bool) (*simResult, bool) {
	name := entryName(keyBytes)
	miss := func() (*simResult, bool) {
		if count {
			s.mu.Lock()
			s.misses++
			s.mu.Unlock()
		}
		return nil, false
	}
	raw, err := os.ReadFile(s.path(name))
	if err != nil {
		return miss()
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
	var e storeEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		return reject("unparseable envelope")
	}
	if e.Sum != ResultSum(e.Result) {
		return reject("result checksum mismatch")
	}
	if !bytes.Equal(e.Key, keyBytes) {
		return reject("key bytes do not match the content address")
	}
	var res simResult
	if err := json.Unmarshal(e.Result, &res); err != nil || res.Metrics == nil {
		return reject("unparseable result")
	}
	if count {
		s.mu.Lock()
		s.hits++
		s.mu.Unlock()
	}
	return &res, true
}

// record persists one computed result. Failures are returned, not fatal:
// a missed record only costs a deterministic recompute later.
func (s *Store) record(key simKey, res *simResult) error {
	kb, err := simKeyBytes(key)
	if err != nil {
		return fmt.Errorf("sim: store key: %w", err)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("sim: store result: %w", err)
	}
	return s.recordRaw(kb, rb)
}

// recordRaw writes the entry for keyBytes with the given raw result
// bytes, atomically (temp file + fsync + rename), so concurrent writers
// and a crash mid-write can never leave a torn entry under the final
// name.
func (s *Store) recordRaw(keyBytes, resultBytes []byte) error {
	name := entryName(keyBytes)
	env, err := json.Marshal(storeEntry{
		Key:    keyBytes,
		Sum:    ResultSum(resultBytes),
		Result: resultBytes,
	})
	if err != nil {
		return fmt.Errorf("sim: store entry: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-"+name[:12]+"-*")
	if err != nil {
		return fmt.Errorf("sim: store write: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		return fmt.Errorf("sim: store write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sim: store fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sim: store close: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(name)); err != nil {
		return fmt.Errorf("sim: store rename: %w", err)
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
// worker's float encoding is preserved bit for bit.
func (s *Store) RecordCellResult(opt Options, c CellSpec, resultBytes []byte) error {
	var res simResult
	if err := json.Unmarshal(resultBytes, &res); err != nil || res.Metrics == nil {
		return fmt.Errorf("sim: store: cell %s result does not parse: %v", c.ID(), err)
	}
	key, _, err := cellKey(opt, c)
	if err != nil {
		return err
	}
	kb, err := simKeyBytes(key)
	if err != nil {
		return fmt.Errorf("sim: store key: %w", err)
	}
	return s.recordRaw(kb, resultBytes)
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
	kb, err := simKeyBytes(key)
	if err != nil {
		return false
	}
	return s.has(kb)
}

// Stats snapshots the store's counters. Safe to call concurrently.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Hits: s.hits, Misses: s.misses, CorruptDropped: s.corrupt, Repaired: s.repaired}
}

// Len counts the entries currently on disk (excluding in-flight temp
// files).
func (s *Store) Len() (int, error) {
	names, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return 0, err
	}
	return len(names), nil
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
		if strings.HasPrefix(fn, ".tmp-") {
			// A writer holds its temp file only for one write+rename;
			// anything this old is an orphan from a crashed process.
			if now.Sub(info.ModTime()) > time.Hour {
				os.Remove(filepath.Join(s.dir, fn))
			}
			continue
		}
		name, ok := strings.CutSuffix(fn, ".json")
		if !ok {
			continue
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
	return b, ResultSum(b), nil
}
