// Package perfdb is the ingest core left from a deleted perf-history
// service (DESIGN.md §13). It exists only for perfbench's
// TestResultIngestedByPerfdb, which checks that a benchmark result line
// ingests as one series per metric, and will be deleted with that test.
//
// Ingest flattens a JSON document's numeric leaves into series and
// writes them as one batch. A database is one directory:
//
//	points/NNNNNN.json  one durable record per Ingest: its points, in order
//
// Every batch is written whole (internal/durable), so a crash loses at
// most the batch being written. Open reads every batch and skips one
// that fails its checksum.
package perfdb

import (
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
)

// pointsDir holds the point batches, one durable record each.
const pointsDir = "points"

// FormatAuto is the one ingest format: a JSON object whose numeric
// leaves become series.
const FormatAuto = "auto"

// point is one series' samples at one commit: the element of a batch.
type point struct {
	Commit  string    `json:"commit"`
	Series  string    `json:"series"`
	Source  string    `json:"source,omitempty"`
	Samples []float64 `json:"samples"`
}

// DB is a perf database. All methods are safe for concurrent use.
type DB struct {
	dir string

	mu     sync.Mutex
	next   int             // number of the next batch Ingest writes
	series map[string]bool // every series in a readable batch
}

// Open opens (creating if needed) the database under dir and reads
// every batch.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(filepath.Join(dir, pointsDir), 0o755); err != nil {
		return nil, fmt.Errorf("perfdb: %w", err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, pointsDir))
	if err != nil {
		return nil, fmt.Errorf("perfdb: %w", err)
	}
	db := &DB{dir: dir, series: make(map[string]bool)}
	for _, de := range ents {
		name, ok := strings.CutSuffix(de.Name(), ".json")
		n, err := strconv.Atoi(name)
		if !ok || err != nil {
			continue // an interrupted write's temp file, not a batch
		}
		db.next = max(db.next, n+1)
		var pts []point
		if _, err := durable.ReadRecord(filepath.Join(dir, pointsDir, de.Name()), &pts); err != nil {
			continue // torn or rotted on disk; re-ingesting the document recreates it
		}
		for _, p := range pts {
			db.series[p.Series] = true
		}
	}
	return db, nil
}

// Ingest flattens a JSON object into points at commit and writes them
// as the next batch. Every numeric leaf becomes a series named
// "metrics.<name without extension>.<dotted path>"; booleans count as
// 0/1, array elements are samples of their array's path, and strings
// and nulls are skipped. format must be FormatAuto or empty. It returns
// the batch's id and the number of points written.
func (db *DB) Ingest(format, commit, name string, data []byte) (id string, n int, err error) {
	if format != "" && format != FormatAuto {
		return "", 0, fmt.Errorf("perfdb: unknown format %q", format)
	}
	if commit == "" {
		return "", 0, errors.New("perfdb: ingest needs a commit")
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", 0, fmt.Errorf("perfdb: %s: %w", name, err)
	}
	base := strings.TrimSuffix(filepath.Base(name), filepath.Ext(name))
	if base == "" || base == "." {
		base = "metrics"
	}
	samples := make(map[string][]float64)
	flatten(doc, "metrics."+base, samples)
	if len(samples) == 0 {
		return "", 0, fmt.Errorf("perfdb: %s: no numeric leaves", name)
	}
	points := make([]point, 0, len(samples))
	for series, xs := range samples {
		points = append(points, point{Commit: commit, Series: series, Source: "metrics", Samples: xs})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Series < points[j].Series })

	db.mu.Lock()
	defer db.mu.Unlock()
	// Claim the next free number, so a batch another process wrote
	// since Open is skipped rather than replaced.
	for {
		id = fmt.Sprintf("%06d", db.next)
		path := filepath.Join(db.dir, pointsDir, id+".json")
		db.next++
		err := durable.Claim(path)
		if err == nil {
			err = durable.WriteRecord(path, nil, points)
		}
		if err == nil {
			break
		} else if !errors.Is(err, os.ErrExist) {
			return "", 0, fmt.Errorf("perfdb: ingest: %w", err)
		}
	}
	for _, p := range points {
		db.series[p.Series] = true
	}
	return id, len(points), nil
}

// flatten accumulates every numeric leaf of v under its dotted path.
func flatten(v any, path string, out map[string][]float64) {
	switch t := v.(type) {
	case float64:
		out[path] = append(out[path], t)
	case bool:
		x := 0.0
		if t {
			x = 1
		}
		out[path] = append(out[path], x)
	case map[string]any:
		for k, e := range t {
			flatten(e, path+"."+k, out)
		}
	case []any:
		for _, e := range t {
			flatten(e, path, out)
		}
	}
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

// Close is a no-op: the DB holds no open file between calls.
func (db *DB) Close() error { return nil }
