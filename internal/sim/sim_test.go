package sim

import (
	"bytes"
	"strings"
	"testing"

	"dtexl/internal/core"
	"dtexl/internal/pipeline"
)

// testOptions runs at 1/8 the paper resolution over a 3-game subset to
// keep the suite fast while still exercising every experiment end to end.
func testOptions() Options {
	o := ScaledOptions(8)
	o.Benchmarks = []string{"TRu", "CCS", "GTr"}
	return o
}

// run is the memoized simulation of alias under pol, at the Fig. 16
// upper bound when ub is set.
func (r *Runner) run(alias string, pol core.Policy, ub bool) (*RunResult, error) {
	var mutate func(*pipeline.Config)
	if ub {
		mutate = core.ApplyUpperBound
	}
	return r.RunOneWith(alias, pol, mutate)
}

func TestRunOne(t *testing.T) {
	res, err := RunOne("TRu", core.Baseline(), testOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Cycles <= 0 || res.Energy.Total() <= 0 {
		t.Errorf("cycles=%d energy=%v", res.Metrics.Cycles, res.Energy.Total())
	}
	if res.Bench != "TRu" || res.Policy.Name != "baseline" {
		t.Errorf("labels: %s %s", res.Bench, res.Policy.Name)
	}
}

func TestRunOneUnknownBenchmark(t *testing.T) {
	if _, err := RunOne("???", core.Baseline(), testOptions(), false); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunnerCaches(t *testing.T) {
	r := NewRunner(testOptions())
	calls := 0
	r.Progress = func(string) { calls++ }
	if _, err := r.run("TRu", core.Baseline(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.run("TRu", core.Baseline(), false); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("progress called %d times, want 1 (second run must be cached)", calls)
	}
}

func TestFig1And2Shapes(t *testing.T) {
	r := NewRunner(testOptions())
	f1, err := r.Table("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Rows) != 2 || len(f1.Rows[0].Values) != 4 {
		t.Fatalf("fig1 shape: %d rows x %d cols", len(f1.Rows), len(f1.Rows[0].Values))
	}
	// TL imbalance must exceed LB on every benchmark (Fig. 1's message).
	for i, v := range f1.Rows[1].Values {
		if v <= f1.Rows[0].Values[i] {
			t.Errorf("fig1 col %d: TL (%v) not above LB (%v)", i, v, f1.Rows[0].Values[i])
		}
	}
	f2, err := r.Table("fig2")
	if err != nil {
		t.Fatal(err)
	}
	// TL must reduce L2 accesses on every benchmark (Fig. 2's message).
	for i, v := range f2.Rows[0].Values {
		if v >= 1 {
			t.Errorf("fig2 col %d: normalized L2 = %v, want < 1", i, v)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	r := NewRunner(testOptions())
	f, err := r.Table("fig11")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 10 {
		t.Fatalf("fig11 has %d groupings, want 10", len(f.Rows))
	}
	byName := map[string][]float64{}
	for _, row := range f.Rows {
		byName[row.Name] = row.Values
	}
	// FG-xshift2 is the normalization base: all 1.
	for _, v := range byName["FG-xshift2"] {
		if v != 1 {
			t.Errorf("FG-xshift2 normalized value = %v", v)
		}
	}
	// Every coarse grouping must beat every fine grouping on average
	// (last column).
	last := len(f.Cols) - 1
	for _, fg := range []string{"FG-checker", "FG-xshift2", "FG-xshift1", "FG-xshift3", "FG-vpair", "FG-hpair"} {
		for _, cg := range []string{"CG-square", "CG-xrect", "CG-yrect", "CG-tri"} {
			if byName[cg][last] >= byName[fg][last] {
				t.Errorf("%s (%v) not below %s (%v) in avg L2", cg, byName[cg][last], fg, byName[fg][last])
			}
		}
	}
}

func TestFig12CGImbalanceAboveFG(t *testing.T) {
	r := NewRunner(testOptions())
	f, err := r.Table("fig12")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, row := range f.Rows {
		byName[row.Name] = row.Values
	}
	last := len(f.Cols) - 1
	if byName["CG-square"][last] < 3 {
		t.Errorf("CG-square imbalance only %vx FG-xshift2; paper reports ~6-10x for CG rects", byName["CG-square"][last])
	}
	if byName["FG-checker"][last] > 2 {
		t.Errorf("FG-checker imbalance %vx; fine groupings should stay near 1x", byName["FG-checker"][last])
	}
}

func TestFig13NoSpeedupWithoutDecoupling(t *testing.T) {
	r := NewRunner(testOptions())
	f, err := r.Table("fig13")
	if err != nil {
		t.Fatal(err)
	}
	last := len(f.Cols) - 1
	for _, row := range f.Rows {
		if row.Values[last] < 0.85 || row.Values[last] > 1.15 {
			t.Errorf("%s coupled speedup = %v; paper reports ~1.0", row.Name, row.Values[last])
		}
	}
}

func TestFig14And15Violins(t *testing.T) {
	r := NewRunner(testOptions())
	f14, err := r.Violin("fig14")
	if err != nil {
		t.Fatal(err)
	}
	if len(f14.Rows) != 6 { // 3 benches x 2 configs
		t.Fatalf("fig14 rows = %d", len(f14.Rows))
	}
	// Per bench, CG-square mean must exceed FG-xshift2 mean.
	for i := 0; i+1 < len(f14.Rows); i += 2 {
		fg, cg := f14.Rows[i], f14.Rows[i+1]
		if cg.Summary.Mean <= fg.Summary.Mean {
			t.Errorf("%s: CG time imbalance (%v) not above FG (%v)", fg.Bench, cg.Summary.Mean, fg.Summary.Mean)
		}
	}
	f15, err := r.Violin("fig15")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(f15.Rows); i += 2 {
		fg, cg := f15.Rows[i], f15.Rows[i+1]
		if cg.Summary.Mean <= fg.Summary.Mean {
			t.Errorf("%s: CG quad imbalance not above FG", fg.Bench)
		}
	}
}

func TestFig16MappingsAndBound(t *testing.T) {
	r := NewRunner(testOptions())
	f, err := r.Table("fig16")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 9 { // 8 mappings + upper bound
		t.Fatalf("fig16 rows = %d", len(f.Rows))
	}
	last := len(f.Cols) - 1
	var bound float64
	for _, row := range f.Rows {
		if row.Name == "UpperBound" {
			bound = row.Values[last]
		}
	}
	for _, row := range f.Rows {
		if row.Name == "UpperBound" {
			continue
		}
		v := row.Values[last]
		if v < 20 || v > 65 {
			t.Errorf("%s: L2 decrease %v%% outside plausible band", row.Name, v)
		}
		if v >= bound {
			t.Errorf("%s: decrease %v%% exceeds the upper bound %v%%", row.Name, v, bound)
		}
		// Paper: mappings close >= ~70% of the gap to the bound.
		if v < 0.55*bound {
			t.Errorf("%s: closes only %v%% of a %v%% bound", row.Name, v, bound)
		}
	}
}

func TestFig17SpeedupOrdering(t *testing.T) {
	r := NewRunner(testOptions())
	f, err := r.Table("fig17")
	if err != nil {
		t.Fatal(err)
	}
	last := len(f.Cols) - 1
	var dtexl, fgdec float64
	for _, row := range f.Rows {
		switch row.Name {
		case "DTexL(HLB-flp2)":
			dtexl = row.Values[last]
		case "baseline-decoupled":
			fgdec = row.Values[last]
		}
	}
	if !(dtexl > fgdec && fgdec > 1) {
		t.Errorf("speedup ordering violated: dtexl=%v fgdec=%v; paper has 1.2 > 1.09 > 1", dtexl, fgdec)
	}
	if dtexl < 1.05 || dtexl > 1.6 {
		t.Errorf("DTexL speedup %v outside plausible band around the paper's 1.2", dtexl)
	}
}

func TestFig18EnergyOrdering(t *testing.T) {
	r := NewRunner(testOptions())
	f, err := r.Table("fig18")
	if err != nil {
		t.Fatal(err)
	}
	last := len(f.Cols) - 1
	var dtexl, fgdec float64
	for _, row := range f.Rows {
		switch row.Name {
		case "DTexL(HLB-flp2)":
			dtexl = row.Values[last]
		case "baseline-decoupled":
			fgdec = row.Values[last]
		}
	}
	if !(dtexl > fgdec && fgdec > 0) {
		t.Errorf("energy ordering violated: dtexl=%v%% fgdec=%v%%; paper has 6.3 > 3 > 0", dtexl, fgdec)
	}
	if dtexl < 2 || dtexl > 15 {
		t.Errorf("DTexL energy decrease %v%% outside plausible band around the paper's 6.3%%", dtexl)
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	r := NewRunner(testOptions())
	for _, id := range []string{"tab1", "tab2"} {
		var buf bytes.Buffer
		if err := r.RunExperiment(id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
	var buf bytes.Buffer
	if err := r.RunExperiment("fig99", &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestCheckExperimentID: the check follows the lookup's rule, so case
// is ignored and anything else that names no experiment is refused.
func TestCheckExperimentID(t *testing.T) {
	for _, id := range []string{"fig11", "Fig11", "TAB1", "abl-NUCA"} {
		if err := CheckExperimentID(id); err != nil {
			t.Errorf("CheckExperimentID(%q) = %v, want nil", id, err)
		}
	}
	for _, id := range []string{"nope", "fig99", "", " fig11"} {
		if err := CheckExperimentID(id); err == nil {
			t.Errorf("CheckExperimentID(%q) = nil, want an error", id)
		}
	}
}

func TestTable1ListsAllGames(t *testing.T) {
	r := NewRunner(testOptions())
	var buf bytes.Buffer
	if err := r.Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, alias := range []string{"CCS", "SoD", "TRu", "SWa", "CRa", "RoK", "DDS", "Snp", "Mze", "GTr"} {
		if !strings.Contains(out, alias) {
			t.Errorf("tab1 missing %s", alias)
		}
	}
}

func TestTable2MatchesTableII(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"600 MHz", "1960x768", "32x32", "16KiB", "1MiB", "50-100"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab2 missing %q\n%s", want, out)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "t", Title: "x", Metric: "y",
		Cols: []string{"A", "Avg"},
		Rows: []TableRow{{Name: "r", Values: []float64{1, 1}}},
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	if !strings.Contains(buf.String(), "1.000") {
		t.Error("render missing values")
	}
}

func TestExperimentIDsComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := map[string]bool{
		"fig1": true, "fig2": true, "fig11": true, "fig12": true, "fig13": true,
		"fig14": true, "fig15": true, "fig16": true, "fig17": true, "fig18": true,
		"tab1": true, "tab2": true,
		"abl-tileorder": true, "abl-warps": true, "abl-l1size": true, "abl-fifo": true,
		"abl-tilesize": true, "abl-latez": true, "abl-prefetch": true, "abl-nuca": true, "abl-warpsched": true, "bg-imr": true,
		"stalls": true,
	}
	if len(ids) != len(want) {
		t.Fatalf("%d experiments, want %d", len(ids), len(want))
	}
	for _, id := range ids {
		if !want[id] {
			t.Errorf("unexpected experiment %q", id)
		}
	}
}
