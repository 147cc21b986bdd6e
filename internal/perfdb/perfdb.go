// Package perfdb is the continuous-perf store behind cmd/dtexlperf
// (DESIGN.md §13): a per-benchmark time series of every bench run keyed
// by commit, a step-change regression detector over those series
// (internal/stats.DetectSteps), and an automatic bisector that re-runs
// one microbenchmark per commit in git worktrees to pinpoint the
// offending commit. Modeled on skia-buildbot's perf + pinpoint split,
// scaled to this repo: one directory of files.
//
// The on-disk layout under the database directory is
//
//	points/NNNNNN.json  one durable record per Append: its points, in order
//	raw/                every ingested artifact byte-for-byte as received
//
// Every file is written whole (internal/durable), so a crash loses at
// most the batch being written. Commit order is first-appearance order
// across the batches in number order: the ingest pipeline appends runs
// in CI order, which is commit order. A batch that fails its checksum
// is skipped and counted by Dropped. An older version's log.jsonl is
// converted once into batch 000000 and renamed log.jsonl.migrated.
package perfdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dtexl/internal/durable"
	"dtexl/internal/stats"
)

// pointsDir holds the point batches, one durable record each.
const pointsDir = "points"

// legacyLog is older versions' log, one JSON Point per line.
const legacyLog = "log.jsonl"

// rawDir holds ingested artifacts verbatim.
const rawDir = "raw"

// Point is one measurement of one series at one commit: the unit of
// ingestion and the element of a batch. Samples holds every
// repeated measurement of the run (e.g. the -count=5 values of one
// benchmark); consumers collapse them with a median.
type Point struct {
	Commit  string    `json:"commit"`
	Series  string    `json:"series"`
	Unit    string    `json:"unit,omitempty"`
	Source  string    `json:"source,omitempty"`
	Samples []float64 `json:"samples"`
}

// SeriesPoint is one commit's entry of an assembled series.
type SeriesPoint struct {
	Commit string `json:"commit"`
	// CommitIndex is the commit's position in the DB's global commit
	// order (first-appearance order).
	CommitIndex int       `json:"commit_index"`
	Median      float64   `json:"median"`
	Samples     []float64 `json:"samples"`
}

// DB is the perf database. All methods are safe for concurrent use.
type DB struct {
	dir string

	mu      sync.Mutex
	next    int // number of the next batch Append writes
	commits []string
	commitI map[string]int
	// series -> commit -> merged samples (multiple Appends for the
	// same (series, commit) concatenate, like re-runs of one commit).
	series  map[string]map[string][]float64
	units   map[string]string
	dropped int // unreadable batches (and legacy log lines) skipped by Open
}

// Open opens (creating if needed) the database under dir, converts a
// legacy log and reads every batch in name order.
func Open(dir string) (*DB, error) {
	for _, sub := range []string{pointsDir, rawDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("perfdb: %w", err)
		}
	}
	db := &DB{
		dir:     dir,
		commitI: make(map[string]int),
		series:  make(map[string]map[string][]float64),
		units:   make(map[string]string),
	}
	if err := db.migrateLegacyLog(); err != nil {
		return nil, err
	}
	// Sorted by name, which is number order.
	ents, err := os.ReadDir(filepath.Join(dir, pointsDir))
	if err != nil {
		return nil, fmt.Errorf("perfdb: %w", err)
	}
	for _, de := range ents {
		name, ok := strings.CutSuffix(de.Name(), ".json")
		n, err := strconv.Atoi(name)
		if !ok || err != nil {
			continue // an interrupted write's temp file, not a batch
		}
		db.next = max(db.next, n+1)
		var pts []Point
		if _, err := durable.ReadRecord(filepath.Join(dir, pointsDir, de.Name()), &pts); err != nil {
			db.dropped++ // torn or rotted on disk; re-ingesting the run recreates it
			continue
		}
		for _, p := range pts {
			db.index(p)
		}
	}
	return db, nil
}

// migrateLegacyLog converts an older version's log.jsonl once: its valid
// points, in order, become batch 000000, its unparsable lines count in
// Dropped, and it is renamed log.jsonl.migrated. A batch 000000 already
// on disk is a conversion stopped short of the rename, which is left.
func (db *DB) migrateLegacyLog() error {
	path := filepath.Join(db.dir, legacyLog)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return fmt.Errorf("perfdb: %w", err)
	}
	first := filepath.Join(db.dir, pointsDir, "000000.json")
	if _, err := os.Stat(first); errors.Is(err, os.ErrNotExist) {
		var pts []Point
		for _, line := range bytes.Split(data, []byte("\n")) {
			var p Point
			if json.Unmarshal(line, &p) == nil && p.Commit != "" && p.Series != "" && len(p.Samples) > 0 {
				pts = append(pts, p)
			} else if len(line) > 0 {
				db.dropped++
			}
		}
		if err := durable.WriteRecord(first, nil, pts); err != nil {
			return fmt.Errorf("perfdb: %w", err)
		}
	}
	return os.Rename(path, path+".migrated")
}

// index merges one point into the in-memory view (caller holds mu or
// is Open's single-threaded replay).
func (db *DB) index(p Point) {
	if _, ok := db.commitI[p.Commit]; !ok {
		db.commitI[p.Commit] = len(db.commits)
		db.commits = append(db.commits, p.Commit)
	}
	byCommit, ok := db.series[p.Series]
	if !ok {
		byCommit = make(map[string][]float64)
		db.series[p.Series] = byCommit
	}
	byCommit[p.Commit] = append(byCommit[p.Commit], p.Samples...)
	if p.Unit != "" {
		db.units[p.Series] = p.Unit
	}
}

// Append durably records a batch of points as the next batch file,
// written whole. Invalid points are rejected before anything is
// written.
func (db *DB) Append(points []Point) error {
	for _, p := range points {
		if p.Commit == "" || p.Series == "" || len(p.Samples) == 0 {
			return fmt.Errorf("perfdb: point needs a commit, a series and samples: %+v", p)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Claim the next free number, so a batch another process appended
	// since Open is skipped rather than replaced.
	for {
		path := filepath.Join(db.dir, pointsDir, fmt.Sprintf("%06d.json", db.next))
		db.next++
		err := durable.Claim(path)
		if err == nil {
			err = durable.WriteRecord(path, nil, points)
		}
		if err == nil {
			break
		} else if !errors.Is(err, os.ErrExist) {
			return fmt.Errorf("perfdb: append: %w", err)
		}
	}
	for _, p := range points {
		db.index(p)
	}
	return nil
}

// Close is a no-op: the DB holds no open file between calls.
func (db *DB) Close() error { return nil }

// Dropped reports what Open skipped: batches that failed verification
// (bit rot or truncation on disk; each is one lost Append) and, when it
// converted a legacy log, that log's unparsable lines.
func (db *DB) Dropped() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.dropped
}

// Commits returns the global commit order (first-appearance order
// across the batches).
func (db *DB) Commits() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]string(nil), db.commits...)
}

// SeriesNames returns every series name, sorted.
func (db *DB) SeriesNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.series))
	for name := range db.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Unit returns the recorded unit of a series ("" if none).
func (db *DB) Unit(name string) string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.units[name]
}

// Series assembles one series in commit order. Commits with no point
// for this series are absent (the series' own index is dense; the
// global CommitIndex can have holes). Returns nil for an unknown name.
func (db *DB) Series(name string) []SeriesPoint {
	db.mu.Lock()
	defer db.mu.Unlock()
	byCommit, ok := db.series[name]
	if !ok {
		return nil
	}
	out := make([]SeriesPoint, 0, len(byCommit))
	for commit, samples := range byCommit {
		out = append(out, SeriesPoint{
			Commit:      commit,
			CommitIndex: db.commitI[commit],
			Median:      stats.Median(samples),
			Samples:     append([]float64(nil), samples...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CommitIndex < out[j].CommitIndex })
	return out
}

// Change is one detected step in one series, annotated with the commit
// window it maps to: the step lies between LastGood and FirstBad — the
// bisector's input range.
type Change struct {
	Series string     `json:"series"`
	Unit   string     `json:"unit,omitempty"`
	Step   stats.Step `json:"step"`
	// LastGood and FirstBad are the commits on each side of the
	// detected boundary (series-local neighbors).
	LastGood string `json:"last_good"`
	FirstBad string `json:"first_bad"`
	// Regression is true when the series went up — for the time-like
	// units this database holds (ns/op, cycles), up is worse.
	Regression bool `json:"regression"`
}

// Detect runs the step detector over every series and returns all
// changes, regressions and improvements both, ordered by series name
// then index. cfg zero-value selects the calibrated defaults.
func (db *DB) Detect(cfg stats.StepConfig) []Change {
	var out []Change
	for _, name := range db.SeriesNames() {
		pts := db.Series(name)
		xs := make([]float64, len(pts))
		for i, p := range pts {
			xs[i] = p.Median
		}
		for _, step := range stats.DetectSteps(xs, cfg) {
			out = append(out, Change{
				Series:     name,
				Unit:       db.Unit(name),
				Step:       step,
				LastGood:   pts[step.Index-1].Commit,
				FirstBad:   pts[step.Index].Commit,
				Regression: step.Ratio > 1,
			})
		}
	}
	return out
}

// Regressions filters Detect down to regressions (series went up).
func (db *DB) Regressions(cfg stats.StepConfig) []Change {
	all := db.Detect(cfg)
	out := all[:0]
	for _, c := range all {
		if c.Regression {
			out = append(out, c)
		}
	}
	return out
}

// PutRaw stores one ingested artifact verbatim under raw/ and returns
// its id. Artifacts are the byte-identical record of what was
// ingested: the CI perf-ingest job asserts a stored artifact is served
// back unchanged.
func (db *DB) PutRaw(name string, data []byte) (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ids, err := db.rawIDsLocked()
	if err != nil {
		return "", err
	}
	id := fmt.Sprintf("%04d-%s", len(ids), sanitizeRawName(name))
	if err := durable.WriteFile(filepath.Join(db.dir, rawDir, id), data); err != nil {
		return "", fmt.Errorf("perfdb: raw: %w", err)
	}
	return id, nil
}

// GetRaw returns a stored artifact's bytes.
func (db *DB) GetRaw(id string) ([]byte, error) {
	if id != sanitizeRawName(id) || strings.HasPrefix(id, durable.TempPrefix) {
		return nil, fmt.Errorf("perfdb: invalid raw id %q", id)
	}
	return os.ReadFile(filepath.Join(db.dir, rawDir, id))
}

// RawIDs lists stored artifacts in id order.
func (db *DB) RawIDs() ([]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.rawIDsLocked()
}

func (db *DB) rawIDsLocked() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(db.dir, rawDir))
	if err != nil {
		return nil, fmt.Errorf("perfdb: raw: %w", err)
	}
	ids := make([]string, 0, len(ents))
	for _, e := range ents {
		// A temp file is an interrupted PutRaw, not an artifact.
		if !e.IsDir() && !strings.HasPrefix(e.Name(), durable.TempPrefix) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// sanitizeRawName maps an artifact name onto a safe flat filename:
// path separators and control characters become '_'.
func sanitizeRawName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	s := b.String()
	if s == "" || strings.Trim(s, ".") == "" {
		s = "artifact"
	}
	return s
}
