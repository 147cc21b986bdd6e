package perfdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dtexl/internal/stats"
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

func TestDBAppendAndSeries(t *testing.T) {
	db, _ := openTestDB(t)
	if err := db.Append([]Point{
		{Commit: "c1", Series: "BenchmarkA", Unit: "ns/op", Samples: []float64{100, 110, 90}},
		{Commit: "c1", Series: "BenchmarkB", Unit: "ns/op", Samples: []float64{7}},
		{Commit: "c2", Series: "BenchmarkA", Unit: "ns/op", Samples: []float64{105}},
	}); err != nil {
		t.Fatalf("Append: %v", err)
	}

	if got := db.Commits(); !reflect.DeepEqual(got, []string{"c1", "c2"}) {
		t.Errorf("Commits = %v, want [c1 c2] (first-appearance order)", got)
	}
	if got := db.SeriesNames(); !reflect.DeepEqual(got, []string{"BenchmarkA", "BenchmarkB"}) {
		t.Errorf("SeriesNames = %v", got)
	}
	if got := db.Unit("BenchmarkA"); got != "ns/op" {
		t.Errorf("Unit = %q", got)
	}

	pts := db.Series("BenchmarkA")
	if len(pts) != 2 {
		t.Fatalf("Series(BenchmarkA) has %d points, want 2", len(pts))
	}
	if pts[0].Commit != "c1" || pts[0].Median != 100 || pts[0].CommitIndex != 0 {
		t.Errorf("point 0 = %+v, want c1 median 100 index 0", pts[0])
	}
	if pts[1].Commit != "c2" || pts[1].Median != 105 || pts[1].CommitIndex != 1 {
		t.Errorf("point 1 = %+v, want c2 median 105 index 1", pts[1])
	}
	if db.Series("nope") != nil {
		t.Error("Series on unknown name should be nil")
	}
}

// TestDBMergeSameCommit: a re-run of the same commit appends into the
// same (series, commit) sample set rather than forking a new point.
func TestDBMergeSameCommit(t *testing.T) {
	db, _ := openTestDB(t)
	db.Append([]Point{{Commit: "c1", Series: "B", Samples: []float64{10, 20}}})
	db.Append([]Point{{Commit: "c1", Series: "B", Samples: []float64{30}}})
	pts := db.Series("B")
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1 merged point", len(pts))
	}
	if !reflect.DeepEqual(pts[0].Samples, []float64{10, 20, 30}) {
		t.Errorf("merged samples = %v", pts[0].Samples)
	}
	if pts[0].Median != 20 {
		t.Errorf("merged median = %v, want 20", pts[0].Median)
	}
}

func TestDBAppendValidation(t *testing.T) {
	db, _ := openTestDB(t)
	for _, p := range []Point{
		{Series: "B", Samples: []float64{1}},
		{Commit: "c", Samples: []float64{1}},
		{Commit: "c", Series: "B"},
	} {
		if err := db.Append([]Point{p}); err == nil {
			t.Errorf("Append(%+v) succeeded, want validation error", p)
		}
	}
	// The failed batches must not have been indexed.
	if got := db.SeriesNames(); len(got) != 0 {
		t.Errorf("rejected points leaked into the index: %v", got)
	}
}

// TestDBReplay: close and reopen — the replayed in-memory view matches
// what was appended, including commit order across multiple batches.
func TestDBReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		commit := fmt.Sprintf("c%02d", i)
		if err := db.Append([]Point{
			{Commit: commit, Series: "BenchmarkHot", Unit: "ns/op", Samples: []float64{100 + float64(i)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Dropped() != 0 {
		t.Errorf("Dropped = %d after clean close", re.Dropped())
	}
	if got := len(re.Commits()); got != 5 {
		t.Fatalf("replayed %d commits, want 5", got)
	}
	pts := re.Series("BenchmarkHot")
	for i, p := range pts {
		if want := fmt.Sprintf("c%02d", i); p.Commit != want || p.Median != 100+float64(i) {
			t.Errorf("replayed point %d = %+v, want %s at %v", i, p, want, 100+float64(i))
		}
	}
	if got := re.Unit("BenchmarkHot"); got != "ns/op" {
		t.Errorf("replayed unit = %q", got)
	}

	// Appends after a replay continue the batch sequence: one record
	// per Append, numbered in order, and no log file.
	if err := re.Append([]Point{{Commit: "c05", Series: "BenchmarkHot", Samples: []float64{105}}}); err != nil {
		t.Fatalf("append after replay: %v", err)
	}
	if got := len(re.Series("BenchmarkHot")); got != 6 {
		t.Errorf("series has %d points after post-replay append, want 6", got)
	}
	batches, err := filepath.Glob(filepath.Join(dir, pointsDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range batches {
		batches[i] = filepath.Base(batches[i])
	}
	want := []string{"000000.json", "000001.json", "000002.json", "000003.json", "000004.json", "000005.json"}
	if !reflect.DeepEqual(batches, want) {
		t.Errorf("batch files = %v, want %v", batches, want)
	}
	if _, err := os.Stat(filepath.Join(dir, legacyLog)); !os.IsNotExist(err) {
		t.Errorf("a log file exists: %v", err)
	}
}

// TestDBTornTail: a batch torn on disk fails its checksum and a crash
// mid-Append leaves only a temp file; Open drops exactly the torn batch,
// ignores the temp file, keeps every other point, and later appends
// take fresh batch numbers rather than overwriting either.
func TestDBTornTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.Append([]Point{
		{Commit: "c1", Series: "B", Samples: []float64{1}},
		{Commit: "c2", Series: "B", Samples: []float64{2}},
	})
	db.Append([]Point{{Commit: "c3", Series: "B", Samples: []float64{3}}})
	db.Close()

	last := filepath.Join(dir, pointsDir, "000001.json")
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, pointsDir, ".tmp-000002.json-7"), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with a torn batch: %v", err)
	}
	defer re.Close()
	if re.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", re.Dropped())
	}
	if got := len(re.Series("B")); got != 2 {
		t.Errorf("kept %d points, want the 2 complete ones", got)
	}
	if err := re.Append([]Point{{Commit: "c3", Series: "B", Samples: []float64{3}}}); err != nil {
		t.Fatalf("append after a torn batch: %v", err)
	}
	// The re-append of the lost batch must replay cleanly next time:
	// the torn batch is still dropped, everything else kept.
	re.Close()
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Dropped() != 1 {
		t.Errorf("after recovery cycle: Dropped = %d, want 1", re2.Dropped())
	}
	if got := len(re2.Series("B")); got != 3 {
		t.Errorf("after recovery cycle: %d points, want 3", got)
	}
}

// TestDBConcurrentOpenKeepsBatches: two DBs open on one directory, as
// a running server and a command-line ingest are, each number their
// batches from what they read at Open. A batch the other appended
// since is skipped, not replaced, and a reopen reads both.
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
	if err := a.Append([]Point{{Commit: "c1", Series: "A", Samples: []float64{1}}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Append([]Point{{Commit: "c2", Series: "B", Samples: []float64{2}}}); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Commits(); !reflect.DeepEqual(got, []string{"c1", "c2"}) {
		t.Errorf("Commits after two writers = %v, want [c1 c2]", got)
	}
	if re.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", re.Dropped())
	}
}

// TestDBMigratesLegacyLog: a log.jsonl in the older one-point-per-line
// format, holding a torn line mid-file (an earlier crash that Open then
// newline-terminated) and a torn tail, opens with the same view as the
// same points appended batch by batch, drops the two torn lines, and is
// converted exactly once: into batch 000000, with the log renamed.
func TestDBMigratesLegacyLog(t *testing.T) {
	points := []Point{
		{Commit: "c1", Series: "BenchmarkA", Unit: "ns/op", Source: "bench.txt", Samples: []float64{100, 110, 90}},
		{Commit: "c1", Series: "BenchmarkB", Unit: "ns/op", Samples: []float64{7}},
		{Commit: "c2", Series: "BenchmarkA", Unit: "ns/op", Samples: []float64{105}},
		{Commit: "c1", Series: "BenchmarkA", Samples: []float64{95}},
		{Commit: "c3", Series: "metrics.x.L2.Hits", Samples: []float64{1, 2, 3}},
	}
	var legacy bytes.Buffer
	for i, p := range points {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		legacy.Write(b)
		legacy.WriteByte('\n')
		if i == 2 {
			legacy.WriteString(`{"commit":"c9","series":"B","sam` + "\n")
		}
	}
	legacy.WriteString(`{"commit":"c4","series":"BenchmarkA","samples":[1`)

	dir := t.TempDir()
	logPath := filepath.Join(dir, legacyLog)
	if err := os.WriteFile(logPath, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	want, _ := openTestDB(t)
	for _, p := range points {
		if err := want.Append([]Point{p}); err != nil {
			t.Fatal(err)
		}
	}
	sameView := func(db *DB) {
		t.Helper()
		if got, w := db.Commits(), want.Commits(); !reflect.DeepEqual(got, w) {
			t.Errorf("Commits = %v, want %v", got, w)
		}
		if got, w := db.SeriesNames(), want.SeriesNames(); !reflect.DeepEqual(got, w) {
			t.Errorf("SeriesNames = %v, want %v", got, w)
		}
		for _, name := range want.SeriesNames() {
			if got, w := db.Series(name), want.Series(name); !reflect.DeepEqual(got, w) {
				t.Errorf("Series(%s) = %+v, want %+v", name, got, w)
			}
			if got, w := db.Unit(name), want.Unit(name); got != w {
				t.Errorf("Unit(%s) = %q, want %q", name, got, w)
			}
		}
	}

	db, err := Open(dir)
	if err != nil {
		t.Fatalf("open a legacy log: %v", err)
	}
	sameView(db)
	if db.Dropped() != 2 {
		t.Errorf("Dropped = %d, want the 2 torn lines", db.Dropped())
	}
	db.Close()
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Errorf("log.jsonl still present after conversion: %v", err)
	}
	if got, err := os.ReadFile(logPath + ".migrated"); err != nil || !bytes.Equal(got, legacy.Bytes()) {
		t.Errorf("log.jsonl.migrated is not the original log: %v", err)
	}

	// Converted exactly once: a reopen reads batch 000000 only.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameView(re)
	if re.Dropped() != 0 {
		t.Errorf("reopen Dropped = %d, want 0", re.Dropped())
	}
	re.Close()
	batches, err := filepath.Glob(filepath.Join(dir, pointsDir, "*"))
	if err != nil || len(batches) != 1 || filepath.Base(batches[0]) != "000000.json" {
		t.Errorf("batches after conversion = %v, %v; want [000000.json]", batches, err)
	}

	// A conversion stopped before its rename leaves the log beside batch
	// 000000; the next Open only renames it.
	if err := os.WriteFile(logPath, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	sameView(again)
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Errorf("log.jsonl not renamed on the resumed conversion: %v", err)
	}
}

func TestRawRoundTrip(t *testing.T) {
	db, _ := openTestDB(t)
	data := []byte("exact\x00bytes\nwith weird \xff content")
	id, err := db.PutRaw("bench run #1 (new).txt", data)
	if err != nil {
		t.Fatalf("PutRaw: %v", err)
	}
	if strings.ContainsAny(id, "/\\# ()") {
		t.Errorf("raw id %q not sanitized", id)
	}
	got, err := db.GetRaw(id)
	if err != nil {
		t.Fatalf("GetRaw: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("raw artifact not byte-identical: got %q want %q", got, data)
	}

	id2, _ := db.PutRaw("second", []byte("x"))
	ids, err := db.RawIDs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{id, id2}) {
		t.Errorf("RawIDs = %v, want [%s %s]", ids, id, id2)
	}
}

// TestRawSkipsInterruptedWrite: a PutRaw killed mid-write leaves only a
// ".tmp-" file in raw/; it is not listed, not served and not counted
// toward the next artifact ID.
func TestRawSkipsInterruptedWrite(t *testing.T) {
	db, dir := openTestDB(t)
	id, err := db.PutRaw("first.txt", []byte("whole"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := ".tmp-0001-second.txt-99"
	if err := os.WriteFile(filepath.Join(dir, rawDir, tmp), []byte("hal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ids, err := db.RawIDs(); err != nil || !reflect.DeepEqual(ids, []string{id}) {
		t.Errorf("RawIDs = %v, %v; want [%s]", ids, err, id)
	}
	if _, err := db.GetRaw(tmp); err == nil {
		t.Errorf("GetRaw served the interrupted write %s", tmp)
	}
	id2, err := db.PutRaw("second.txt", []byte("whole too"))
	if err != nil {
		t.Fatal(err)
	}
	if id2 != "0001-second.txt" {
		t.Errorf("next raw id = %q, want 0001-second.txt", id2)
	}
}

// TestGetRawRejectsTraversal: raw ids come from URLs; an id that
// sanitization would have altered (path separators, ..) must be
// rejected, not resolved relative to the raw directory.
func TestGetRawRejectsTraversal(t *testing.T) {
	db, dir := openTestDB(t)
	secret := filepath.Join(dir, "secret")
	os.WriteFile(secret, []byte("s3cret"), 0o644)
	for _, id := range []string{"../secret", "..\\secret", "a/b", ""} {
		if _, err := db.GetRaw(id); err == nil {
			t.Errorf("GetRaw(%q) succeeded, want rejection", id)
		}
	}
	// ".." itself survives sanitization (dots are legal); ensure it
	// still cannot escape: reading it must fail as a directory.
	if data, err := db.GetRaw(".."); err == nil {
		t.Errorf("GetRaw(..) returned %d bytes, want error", len(data))
	}
}

func TestIngestGoBenchText(t *testing.T) {
	db, _ := openTestDB(t)
	text := `goos: linux
BenchmarkHot-8   100  1500 ns/op
BenchmarkHot-8   100  1520 ns/op
BenchmarkCold-8  100  9000 ns/op
PASS
`
	rawID, n, err := db.Ingest(FormatAuto, "abc123", "bench.txt", []byte(text))
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if n != 2 {
		t.Errorf("ingested %d points, want 2", n)
	}
	pts := db.Series("BenchmarkHot")
	if len(pts) != 1 || pts[0].Median != 1510 || !reflect.DeepEqual(pts[0].Samples, []float64{1500, 1520}) {
		t.Errorf("BenchmarkHot = %+v", pts)
	}
	if got := db.Unit("BenchmarkHot"); got != "ns/op" {
		t.Errorf("unit = %q", got)
	}
	raw, err := db.GetRaw(rawID)
	if err != nil || string(raw) != text {
		t.Errorf("raw artifact mismatch: %v, %q", err, raw)
	}
}

func TestIngestBenchguardReport(t *testing.T) {
	db, _ := openTestDB(t)
	report := `{
  "old": "a.txt", "new": "b.txt", "threshold": 0.15,
  "benchmarks": [
    {"name": "BenchmarkHot", "old_ns_per_op": 100, "new_ns_per_op": 120,
     "ratio": 1.2, "old_samples_ns": [100], "new_samples_ns": [120, 118, 121]}
  ],
  "geomean_ratio": 1.2, "pass": false
}`
	_, n, err := db.Ingest(FormatAuto, "abc", "report.json", []byte(report))
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if n != 2 {
		t.Errorf("ingested %d points, want 2 (benchmark + geomean)", n)
	}
	if pts := db.Series("BenchmarkHot"); len(pts) != 1 || !reflect.DeepEqual(pts[0].Samples, []float64{120, 118, 121}) {
		t.Errorf("BenchmarkHot from report = %+v (want new-side samples)", pts)
	}
	if pts := db.Series("benchguard.geomean_ratio"); len(pts) != 1 || pts[0].Median != 1.2 {
		t.Errorf("geomean series = %+v", pts)
	}
}

func TestIngestMetricsJSON(t *testing.T) {
	db, _ := openTestDB(t)
	doc := `{"FramesRendered": 3, "L2": {"Hits": 90, "Misses": 10},
  "PerSCBusy": [0.5, 0.75], "Decoupled": true, "Name": "ignored", "Extra": null}`
	_, n, err := db.Ingest(FormatAuto, "abc", "golden_metrics_decoupled.json", []byte(doc))
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	// FramesRendered, L2.Hits, L2.Misses, PerSCBusy, Decoupled = 5
	// series; the string and null leaves are skipped.
	if n != 5 {
		t.Errorf("ingested %d points, want 5: %v", n, db.SeriesNames())
	}
	prefix := "metrics.golden_metrics_decoupled"
	if pts := db.Series(prefix + ".PerSCBusy"); len(pts) != 1 || !reflect.DeepEqual(pts[0].Samples, []float64{0.5, 0.75}) {
		t.Errorf("array leaf aggregated wrong: %+v", pts)
	}
	if pts := db.Series(prefix + ".Decoupled"); len(pts) != 1 || pts[0].Median != 1 {
		t.Errorf("bool leaf = %+v, want 1", pts)
	}
	if pts := db.Series(prefix + ".L2.Hits"); len(pts) != 1 || pts[0].Median != 90 {
		t.Errorf("nested leaf = %+v", pts)
	}
}

func TestIngestErrors(t *testing.T) {
	db, _ := openTestDB(t)
	cases := []struct {
		name           string
		format, commit string
		data           string
	}{
		{"no commit", FormatAuto, "", "BenchmarkX 1 5 ns/op"},
		{"undetectable", FormatAuto, "c", "not a bench artifact"},
		{"bad format name", "nonsense", "c", "BenchmarkX 1 5 ns/op"},
		{"empty gobench", FormatGoBench, "c", "PASS\n"},
		{"benchguard no rows", FormatBenchguard, "c", `{"benchmarks": [], "geomean_ratio": 1}`},
		{"metrics no numbers", FormatMetrics, "c", `{"a": "strings only"}`},
	}
	for _, tc := range cases {
		if _, _, err := db.Ingest(tc.format, tc.commit, "f", []byte(tc.data)); err == nil {
			t.Errorf("%s: Ingest succeeded, want error", tc.name)
		}
	}
	// Failed ingests must not leave raw artifacts behind points-less.
	if ids, _ := db.RawIDs(); len(ids) != 0 {
		t.Errorf("failed ingests stored raw artifacts: %v", ids)
	}
}

func TestDetectFormat(t *testing.T) {
	cases := []struct {
		data string
		want string
	}{
		{"BenchmarkX-8  100  5 ns/op", FormatGoBench},
		{`{"benchmarks": [{"name": "B"}], "geomean_ratio": 1.0}`, FormatBenchguard},
		{`{"FramesRendered": 3}`, FormatMetrics},
		{"just some text", ""},
	}
	for _, tc := range cases {
		if got := DetectFormat([]byte(tc.data)); got != tc.want {
			t.Errorf("DetectFormat(%q) = %q, want %q", tc.data, got, tc.want)
		}
	}
}

// TestDetectMapsStepToCommitWindow: the detector output must name the
// series-local commits either side of the boundary — the exact range
// handed to the bisector.
func TestDetectMapsStepToCommitWindow(t *testing.T) {
	db, _ := openTestDB(t)
	// 40 commits, clean 30% step at commit index 20.
	for i := 0; i < 40; i++ {
		v := 100.0
		if i >= 20 {
			v = 130
		}
		// Tiny deterministic ripple so MAD is nonzero.
		v += float64(i%3) * 0.2
		db.Append([]Point{{Commit: fmt.Sprintf("c%02d", i), Series: "BenchmarkHot", Unit: "ns/op", Samples: []float64{v}}})
	}
	changes := db.Detect(stats.StepConfig{})
	if len(changes) != 1 {
		t.Fatalf("Detect found %d changes, want 1: %+v", len(changes), changes)
	}
	c := changes[0]
	if c.Series != "BenchmarkHot" || !c.Regression {
		t.Errorf("change = %+v, want BenchmarkHot regression", c)
	}
	// Localization tolerance ±2 commits around the true boundary 19|20.
	lg, fb := c.LastGood, c.FirstBad
	var lgi, fbi int
	fmt.Sscanf(lg, "c%d", &lgi)
	fmt.Sscanf(fb, "c%d", &fbi)
	if fbi != lgi+1 {
		t.Errorf("FirstBad %s is not LastGood %s's successor", fb, lg)
	}
	if fbi < 18 || fbi > 22 {
		t.Errorf("step localized to %s..%s, want near c19..c20", lg, fb)
	}
	if reg := db.Regressions(stats.StepConfig{}); len(reg) != 1 {
		t.Errorf("Regressions = %d, want 1", len(reg))
	}
}

// TestDetectImprovementNotRegression: a step down is reported by
// Detect but filtered out of Regressions.
func TestDetectImprovementNotRegression(t *testing.T) {
	db, _ := openTestDB(t)
	for i := 0; i < 40; i++ {
		v := 130.0
		if i >= 20 {
			v = 100
		}
		v += float64(i%3) * 0.2
		db.Append([]Point{{Commit: fmt.Sprintf("c%02d", i), Series: "B", Samples: []float64{v}}})
	}
	all := db.Detect(stats.StepConfig{})
	if len(all) != 1 || all[0].Regression {
		t.Fatalf("Detect = %+v, want one improvement", all)
	}
	if reg := db.Regressions(stats.StepConfig{}); len(reg) != 0 {
		t.Errorf("Regressions reported an improvement: %+v", reg)
	}
}
