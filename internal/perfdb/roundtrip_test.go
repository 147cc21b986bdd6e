package perfdb

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestGoldenMetricsRoundTrip guards against silent metric loss: every
// numeric-bearing field of the real golden-metrics documents
// (internal/pipeline's observability goldens) must surface as an
// ingested series. The expectation is computed by an independent JSON
// walk here — NOT by calling the ingester's own flattener — so if
// Ingest is ever rewritten around a hand-kept field list, a Metrics
// field it forgot fails this test.
func TestGoldenMetricsRoundTrip(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("..", "pipeline", "testdata", "golden_metrics_*.json"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no golden metrics documents found: %v", err)
	}
	for _, golden := range goldens {
		golden := golden
		t.Run(filepath.Base(golden), func(t *testing.T) {
			data, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			db, _ := openTestDB(t)
			name := filepath.Base(golden)
			if _, _, err := db.Ingest(FormatAuto, "c1", name, data); err != nil {
				t.Fatalf("Ingest: %v", err)
			}

			prefix := "metrics." + strings.TrimSuffix(name, ".json")
			have := make(map[string]bool)
			for _, s := range db.SeriesNames() {
				have[s] = true
			}

			var doc any
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			var missing []string
			walkNumericPaths(doc, prefix, func(path string) {
				if !have[path] {
					missing = append(missing, path)
				}
			})
			sort.Strings(missing)
			if len(missing) > 0 {
				t.Errorf("ingest lost %d numeric Metrics fields:\n  %s",
					len(missing), strings.Join(missing, "\n  "))
			}
			// Sanity floor: a Metrics document is dozens of fields; an
			// ingester that "succeeded" with a handful is broken even if
			// the walk above somehow agreed with it.
			if len(have) < 20 {
				t.Errorf("only %d series ingested from %s — implausibly few", len(have), name)
			}
		})
	}
}

// walkNumericPaths is this test's own notion of which dotted paths a
// metrics document must produce: one per JSON number or bool leaf,
// array elements sharing their array's path. Deliberately independent
// of flatten.
func walkNumericPaths(v any, path string, visit func(string)) {
	switch t := v.(type) {
	case float64, bool:
		visit(path)
	case map[string]any:
		for k, e := range t {
			walkNumericPaths(e, path+"."+k, visit)
		}
	case []any:
		for _, e := range t {
			walkNumericPaths(e, path, visit)
		}
	}
}
