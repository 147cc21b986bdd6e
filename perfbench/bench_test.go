package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dtexl/internal/perfdb"
)

func TestTailRule(t *testing.T) {
	ramp := func(n int) []time.Duration {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(n - i) // descending: the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		wantVal time.Duration
		wantPct float64
	}{
		{n: 1, wantVal: 1, wantPct: 50},
		{n: 5, wantVal: 3, wantPct: 50},                // too few for any tail: the median
		{n: 20, wantVal: 10, wantPct: 50},              // 10.5 truncated by Duration
		{n: 21, wantVal: 11, wantPct: 100 * 11.0 / 21}, // ten samples beyond 11
		{n: 500, wantVal: 490, wantPct: 98},
		{n: 999, wantVal: 989, wantPct: 100 * 989.0 / 999},
		{n: 1000, wantVal: 990, wantPct: 99}, // p99: exactly ten beyond
		{n: 5000, wantVal: 4950, wantPct: 99},
	} {
		got := tailOf(ramp(tc.n))
		if got.Value != tc.wantVal || got.N != tc.n || got.Pct != tc.wantPct {
			t.Errorf("n=%d: got %+v, want value %d at p%v", tc.n, got, tc.wantVal, tc.wantPct)
		}
		if tc.n > 20 {
			beyond := 0
			for _, x := range ramp(tc.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("two values: %v, %v; want 0.75, 2.25", q1, q3)
	}
	if m := durMedian([]time.Duration{30, 10, 20, 100}); m != 25 {
		t.Fatalf("durMedian = %v, want 25", m)
	}
}

func TestReferenceSpeed(t *testing.T) {
	ms := time.Millisecond
	// Neighbouring readings are averaged and weighted by the host time
	// between them: (1 s × 3 ms + 3 s × 4 ms) / 4 s.
	ps := []refPoint{{ref: 2 * ms}, {gap: time.Second, ref: 4 * ms}, {gap: 3 * time.Second, ref: 4 * ms}}
	if got := roundRef(ps); got != float64(3750*time.Microsecond) {
		t.Fatalf("roundRef = %v, want 3.75ms", time.Duration(got))
	}
	if got := roundRef(ps[:1]); got != float64(2*ms) {
		t.Fatalf("roundRef of one reading = %v, want 2ms", time.Duration(got))
	}

	// A round on a host at half the nominal speed is booked at half its
	// host time, its throughput doubled.
	b := &run{}
	b.probes = []refPoint{{ref: 2 * refNominal}, {gap: time.Second, ref: 2 * refNominal}}
	b.setup(10 * ms)
	b.done(4, 2*time.Second, 2*time.Second, []time.Duration{100 * ms, 300 * ms, 500 * ms})
	b.book(false)
	if b.setups[0] != 5*ms || b.sweeps[0] != time.Second || b.busy != time.Second || b.ops != 4 {
		t.Fatalf("booked setups %v sweeps %v busy %v ops %d", b.setups, b.sweeps, b.busy, b.ops)
	}
	if r := b.perRound[0]; r.rate != 4 || r.p50 != 150 || r.tail.Value != 150*ms {
		t.Fatalf("booked round %+v", r)
	}

	if d := refProbe(); d <= 0 {
		t.Fatalf("refProbe = %v", d)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children (two clients) merge; the part of a child
		// outside its parent does not count.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"root": 100 - (40 + 10), // covered: [10,50) and [90,100)
		"a":    20 + (30 - 10),  // span 3 loses [25,35) to its child
		"b":    30,
		"c":    10,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	if r := explainedRatio(spans); r != 0.5 {
		t.Errorf("explained ratio = %v, want 0.5", r)
	}
	rec := newRecorder()
	root, endRoot := rec.begin("root", 0, 0)
	_, endKid := rec.begin("kid", root, root)
	endKid()
	endRoot()
	got := rec.snapshot()
	if len(got) != 2 || got[1].ID != root || got[1].Req != root || got[0].Parent != root {
		t.Fatalf("recorder spans = %+v", got)
	}
	var nilRec *recorder
	if id, end := nilRec.begin("x", 0, 0); id != 0 {
		t.Fatal("untraced recorder handed out an ID")
	} else {
		end()
	}
}

func TestDigestChecksCatchAlteredOutput(t *testing.T) {
	c := counters{Cycles: 100, PerSCQuads: []uint64{1, 2}, PerSCBusy: []int64{3, 4}}
	c.Events.QuadsShaded = 7
	altered := c
	altered.PerSCQuads = []uint64{1, 3}
	if c.digest() == altered.digest() || c.equal(altered) {
		t.Fatal("altered per-SC counts not detected")
	}
	var v variants
	v.add(cell{"TRu", "baseline"}, c)
	v.add(cell{"TRu", "baseline"}, c)
	v.add(cell{"TRu", "baseline"}, altered)
	if bad := v.wrong(func(_ cell, got counters) bool { return got.digest() == c.digest() }); bad != 1 {
		t.Fatalf("wrong = %d, want 1", bad)
	}

	render := []byte("== fig11: a\nx 1\n\n== fig16: b\ny 2\n\n== fig17: c\nz 3\n")
	byID := tablesByID(render)
	if len(byID) != 3 || string(byID["fig16"]) != "== fig16: b\ny 2" {
		t.Fatalf("tablesByID = %q", byID)
	}
	changed := bytes.Replace(render, []byte("z 3"), []byte("z 4"), 1)
	if bytes.Equal(tablesByID(changed)["fig17"], byID["fig17"]) || tableDigest(changed) == tableDigest(render) {
		t.Fatal("altered table not detected")
	}

	// End to end: every workload's check fails a deliberately altered
	// output and counts it.
	for _, w := range workloadOrder {
		cfg := smokeConfig(t, w)
		cfg.corrupt = true
		res, err := measure(cfg, testLog{t})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: altered output passed: %+v", w, res)
		}
	}
}

// smokeConfig is a tiny-scale, short run of one workload.
func smokeConfig(t *testing.T, workload string) config {
	return config{
		workload:  workload,
		seed:      3,
		window:    300 * time.Millisecond,
		scale:     16,
		storeRoot: t.TempDir(),
		spansOut:  filepath.Join(t.TempDir(), "spans.json"),
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(t, w)
			cfg.traced = traced
			res, err := measure(cfg, testLog{t})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: %+v", w, traced, res)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s: metric %s missing or mis-united: %+v", w, m.name, got)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.name, got.Value)
				}
			}
			if traced {
				if r := res.Metrics["bench.explained_ratio"].Value; r <= 0 || r > 1 {
					t.Errorf("%s: explained ratio %v", w, r)
				}
				if res.Metrics["pipeline.quads_shaded"].Value <= 0 {
					t.Errorf("%s: no simulated quads counted", w)
				}
				if _, err := os.Stat(cfg.spansOut); err != nil {
					t.Errorf("%s: spans not written: %v", w, err)
				}
			}
		}
	}
}

func TestResultIngestedByPerfdb(t *testing.T) {
	res, err := measure(smokeConfig(t, "serve-hot"), testLog{t})
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	db, err := perfdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, n, err := db.Ingest(perfdb.FormatAuto, "c0", "perfbench-serve-hot.json", line); err != nil || n == 0 {
		t.Fatalf("ingest: %d points, %v", n, err)
	}
	names := map[string]bool{}
	for _, s := range db.SeriesNames() {
		names[s] = true
	}
	for _, m := range endToEnd {
		series := "metrics.perfbench-serve-hot.metrics." + m.name + ".value"
		if !names[series] {
			t.Errorf("series %s missing; have %v", series, db.SeriesNames())
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []named) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, reported %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for i, w := range doc.Workloads {
		if i >= len(workloadOrder) || w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json %q", i, w.Name)
		}
	}
}
