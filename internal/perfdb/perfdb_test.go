package perfdb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dtexl/internal/durable"
)

func openTestDB(t *testing.T) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db, dir
}

// ingest writes {"v": v} as document name at commit and returns the
// batch id.
func ingest(t *testing.T, db *DB, commit, name string, v float64) string {
	t.Helper()
	id, n, err := db.Ingest(FormatAuto, commit, name, []byte(fmt.Sprintf(`{"v": %v}`, v)))
	if err != nil || n != 1 {
		t.Fatalf("Ingest %s: %d points, %v", name, n, err)
	}
	return id
}

// readBatch returns the points of one batch as they are on disk.
func readBatch(t *testing.T, dir, id string) []point {
	t.Helper()
	var pts []point
	if _, err := durable.ReadRecord(filepath.Join(dir, pointsDir, id+".json"), &pts); err != nil {
		t.Fatalf("batch %s: %v", id, err)
	}
	return pts
}

func batchFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pointsDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range paths {
		paths[i] = filepath.Base(paths[i])
	}
	return paths
}

// TestDBReplay: close and reopen — the replayed series match what was
// ingested, one batch per Ingest, and ingests after a replay continue
// the batch sequence.
func TestDBReplay(t *testing.T) {
	db, dir := openTestDB(t)
	for i := 0; i < 5; i++ {
		if id := ingest(t, db, fmt.Sprintf("c%02d", i), fmt.Sprintf("run%d.json", i), float64(100+i)); id != fmt.Sprintf("%06d", i) {
			t.Errorf("ingest %d wrote batch %s", i, id)
		}
	}
	want := db.SeriesNames()
	db.Close()

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.SeriesNames(); len(got) != 5 || !reflect.DeepEqual(got, want) {
		t.Errorf("replayed series = %v, want %v", got, want)
	}
	pts := readBatch(t, dir, "000003")
	if w := []point{{Commit: "c03", Series: "metrics.run3.v", Source: "metrics", Samples: []float64{103}}}; !reflect.DeepEqual(pts, w) {
		t.Errorf("batch 000003 = %+v, want %+v", pts, w)
	}

	if id := ingest(t, re, "c05", "run5.json", 105); id != "000005" {
		t.Errorf("ingest after replay wrote batch %s, want 000005", id)
	}
	want = []string{"000000.json", "000001.json", "000002.json", "000003.json", "000004.json", "000005.json"}
	if got := batchFiles(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("batch files = %v, want %v", got, want)
	}
}

// TestDBTornTail: a batch torn on disk fails its checksum and a crash
// mid-write leaves only a temp file; Open skips exactly the torn batch,
// ignores the temp file, keeps every other series, and later ingests
// take fresh batch numbers rather than overwriting either.
func TestDBTornTail(t *testing.T) {
	db, dir := openTestDB(t)
	ingest(t, db, "c1", "kept.json", 1)
	torn := ingest(t, db, "c2", "torn.json", 2)
	db.Close()

	path := filepath.Join(dir, pointsDir, torn+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, pointsDir, ".tmp-000002.json-7")
	if err := os.WriteFile(tmp, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with a torn batch: %v", err)
	}
	defer re.Close()
	if got, want := re.SeriesNames(), []string{"metrics.kept.v"}; !reflect.DeepEqual(got, want) {
		t.Errorf("series with a torn batch = %v, want %v", got, want)
	}
	if id := ingest(t, re, "c2", "torn.json", 2); id != "000002" {
		t.Errorf("re-ingest wrote batch %s, want 000002", id)
	}

	// The re-ingested batch replays next time; the torn one stays
	// skipped and the temp file stays ignored.
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got, want := re2.SeriesNames(), []string{"metrics.kept.v", "metrics.torn.v"}; !reflect.DeepEqual(got, want) {
		t.Errorf("series after recovery = %v, want %v", got, want)
	}
	if got, err := os.ReadFile(path); err != nil || len(got) != len(raw)/2 {
		t.Errorf("torn batch rewritten: %d bytes, %v", len(got), err)
	}
}

// TestDBConcurrentOpenKeepsBatches: two DBs open on one directory each
// number their batches from what they read at Open. A batch the other
// wrote since is skipped, not replaced, and a reopen reads both.
func TestDBConcurrentOpenKeepsBatches(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	idA := ingest(t, a, "c1", "a.json", 1)
	idB := ingest(t, b, "c2", "b.json", 2)
	if idA == idB {
		t.Errorf("both handles wrote batch %s", idA)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.SeriesNames(), []string{"metrics.a.v", "metrics.b.v"}; !reflect.DeepEqual(got, want) {
		t.Errorf("series after two writers = %v, want %v", got, want)
	}
}

func TestIngestMetricsJSON(t *testing.T) {
	db, dir := openTestDB(t)
	doc := `{"FramesRendered": 3, "L2": {"Hits": 90, "Misses": 10},
  "PerSCBusy": [0.5, 0.75], "Decoupled": true, "Name": "ignored", "Extra": null}`
	id, n, err := db.Ingest(FormatAuto, "abc", "golden_metrics_decoupled.json", []byte(doc))
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	// FramesRendered, L2.Hits, L2.Misses, PerSCBusy, Decoupled = 5
	// series; the string and null leaves are skipped.
	if n != 5 {
		t.Errorf("ingested %d points, want 5: %v", n, db.SeriesNames())
	}
	const prefix = "metrics.golden_metrics_decoupled."
	want := map[string][]float64{
		prefix + "Decoupled":      {1},
		prefix + "FramesRendered": {3},
		prefix + "L2.Hits":        {90},
		prefix + "L2.Misses":      {10},
		prefix + "PerSCBusy":      {0.5, 0.75},
	}
	got := map[string][]float64{}
	for _, p := range readBatch(t, dir, id) {
		if p.Commit != "abc" {
			t.Errorf("%s at commit %q, want abc", p.Series, p.Commit)
		}
		got[p.Series] = p.Samples
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batch = %v, want %v", got, want)
	}
	if names := db.SeriesNames(); len(names) != 5 || names[0] != prefix+"Decoupled" {
		t.Errorf("SeriesNames = %v", names)
	}
}

func TestIngestErrors(t *testing.T) {
	db, dir := openTestDB(t)
	cases := []struct {
		name           string
		format, commit string
		data           string
	}{
		{"no commit", FormatAuto, "", `{"a": 1}`},
		{"not JSON", FormatAuto, "c", "BenchmarkX 1 5 ns/op"},
		{"not an object", FormatAuto, "c", `[1, 2]`},
		{"bad format name", "gobench", "c", `{"a": 1}`},
		{"no numbers", FormatAuto, "c", `{"a": "strings only"}`},
	}
	for _, tc := range cases {
		if _, _, err := db.Ingest(tc.format, tc.commit, "f.json", []byte(tc.data)); err == nil {
			t.Errorf("%s: Ingest succeeded, want error", tc.name)
		}
	}
	// Failed ingests write no batch and add no series.
	if files := batchFiles(t, dir); len(files) != 0 {
		t.Errorf("failed ingests wrote batches: %v", files)
	}
	if names := db.SeriesNames(); len(names) != 0 {
		t.Errorf("failed ingests added series: %v", names)
	}
}
