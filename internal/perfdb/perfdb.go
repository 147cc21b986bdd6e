// Package perfdb is the continuous-perf store behind cmd/dtexlperf
// (DESIGN.md §13): an append-only, per-benchmark time series of every
// bench run keyed by commit, a step-change regression detector over
// those series (internal/stats.DetectSteps), and an automatic bisector
// that re-runs one microbenchmark per commit in git worktrees to
// pinpoint the offending commit. Modeled on skia-buildbot's perf +
// pinpoint split, scaled to this repo: one directory, one JSONL log,
// one process.
//
// The on-disk layout under the database directory is
//
//	log.jsonl  one Point per line, append-only, fsync'd per batch
//	raw/       every ingested artifact byte-for-byte as received
//
// Commit order is first-appearance order in the log: the ingest
// pipeline appends runs in CI order, which is commit order. Nothing is
// ever rewritten, so a torn tail from a crash mid-append loses at most
// the final batch. Replay skips an unparsable line and keeps reading:
// Open newline-terminates a torn tail, so later appends follow it.
package perfdb

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"dtexl/internal/stats"
)

// logFile is the append-only point log under the database directory.
const logFile = "log.jsonl"

// rawDir holds ingested artifacts verbatim.
const rawDir = "raw"

// Point is one measurement of one series at one commit: the unit of
// ingestion and the line format of log.jsonl. Samples holds every
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
	log     *os.File
	commits []string
	commitI map[string]int
	// series -> commit -> merged samples (multiple Appends for the
	// same (series, commit) concatenate, like re-runs of one commit).
	series map[string]map[string][]float64
	units  map[string]string
	torn   int // unparsable lines dropped during replay
}

// Open opens (creating if needed) the database under dir and replays
// the valid prefix of its log.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(filepath.Join(dir, rawDir), 0o755); err != nil {
		return nil, fmt.Errorf("perfdb: %w", err)
	}
	db := &DB{
		dir:     dir,
		commitI: make(map[string]int),
		series:  make(map[string]map[string][]float64),
		units:   make(map[string]string),
	}
	path := filepath.Join(dir, logFile)
	if rf, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(rf)
		sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var p Point
			if err := json.Unmarshal(line, &p); err != nil || p.Commit == "" || p.Series == "" {
				// Torn tail from a crash mid-append: the batch is lost,
				// the next ingest of that run recreates it.
				db.torn++
				continue
			}
			db.index(p)
		}
		rf.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("perfdb: replay %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("perfdb: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("perfdb: %w", err)
	}
	// A torn tail may lack its newline; appending onto it would glue
	// the next good point to the garbage and lose that too. Terminate
	// the line now so the torn bytes stay isolated to one dropped line.
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, st.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, fmt.Errorf("perfdb: %w", err)
			}
		}
	}
	db.log = f
	return db, nil
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

// Append durably appends a batch of points: one JSON line each, then
// one fsync for the batch. Points with an empty commit, series or
// sample set are rejected before anything is written.
func (db *DB) Append(points []Point) error {
	for _, p := range points {
		if p.Commit == "" || p.Series == "" {
			return fmt.Errorf("perfdb: point needs commit and series: %+v", p)
		}
		if len(p.Samples) == 0 {
			return fmt.Errorf("perfdb: point %s@%s has no samples", p.Series, p.Commit)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	w := bufio.NewWriter(db.log)
	enc := json.NewEncoder(w)
	for _, p := range points {
		if err := enc.Encode(p); err != nil {
			return fmt.Errorf("perfdb: append: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("perfdb: append: %w", err)
	}
	if err := db.log.Sync(); err != nil {
		return fmt.Errorf("perfdb: append: %w", err)
	}
	for _, p := range points {
		db.index(p)
	}
	return nil
}

// Close closes the log file. The DB must not be used afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.log.Close()
}

// Dropped reports unparsable log lines skipped during Open (a torn
// tail from a crash; at most one batch).
func (db *DB) Dropped() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.torn
}

// Commits returns the global commit order (first-appearance order in
// the log).
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
	path := filepath.Join(db.dir, rawDir, id)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("perfdb: raw: %w", err)
	}
	return id, nil
}

// GetRaw returns a stored artifact's bytes.
func (db *DB) GetRaw(id string) ([]byte, error) {
	if id != sanitizeRawName(id) {
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
		if !e.IsDir() {
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
