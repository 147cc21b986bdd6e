package sim

import (
	"bytes"
	"strings"
	"testing"

	"dtexl/internal/core"
	"dtexl/internal/pipeline"
)

func TestRunOneWith(t *testing.T) {
	opt := testOptions()
	small, err := RunOneWith("TRu", core.Baseline(), opt, func(cfg *pipeline.Config) {
		cfg.WarpSlots = 2
	})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunOneWith("TRu", core.Baseline(), opt, func(cfg *pipeline.Config) {
		cfg.WarpSlots = 16
	})
	if err != nil {
		t.Fatal(err)
	}
	// More warps hide more latency: never slower.
	if big.Metrics.Cycles > small.Metrics.Cycles {
		t.Errorf("16 warps (%d cycles) slower than 2 warps (%d)", big.Metrics.Cycles, small.Metrics.Cycles)
	}
	// Nil mutation is allowed.
	if _, err := RunOneWith("TRu", core.Baseline(), opt, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := RunOneWith("???", core.Baseline(), opt, nil); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestAblTileOrder(t *testing.T) {
	r := NewRunner(testOptions())
	tbl, err := r.AblTileOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("%d tile orders, want 5", len(tbl.Rows))
	}
	// Every order still delivers a large L2 decrease: the grouping does
	// the heavy lifting, the order contributes the last few points.
	last := len(tbl.Cols) - 1
	for _, row := range tbl.Rows {
		if row.Values[last] < 25 {
			t.Errorf("%s: only %v%% decrease", row.Name, row.Values[last])
		}
	}
}

func TestAblWarpSlotsMonotoneBenefit(t *testing.T) {
	r := NewRunner(testOptions())
	tbl, err := r.AblWarpSlots()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d warp points", len(tbl.Rows))
	}
	last := len(tbl.Cols) - 1
	// DTexL helps at every occupancy, and extra warps widen its lead:
	// the baseline is pinned by saturated L1 fill ports, DTexL is not.
	lo := tbl.Rows[0].Values[last]
	hi := tbl.Rows[len(tbl.Rows)-1].Values[last]
	if hi <= lo {
		t.Errorf("DTexL speedup at 16 warps (%v) not above 2 warps (%v)", hi, lo)
	}
	for _, row := range tbl.Rows {
		if row.Values[last] <= 0.95 {
			t.Errorf("%s: speedup %v", row.Name, row.Values[last])
		}
	}
}

func TestAblL1SizeShrinksHeadroom(t *testing.T) {
	r := NewRunner(testOptions())
	tbl, err := r.AblL1Size()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d L1 points", len(tbl.Rows))
	}
	last := len(tbl.Cols) - 1
	// The benefit is flat across a factor-8 capacity range: every point
	// must deliver a substantial decrease, and the spread stays small.
	mn, mx := tbl.Rows[0].Values[last], tbl.Rows[0].Values[last]
	for _, row := range tbl.Rows {
		v := row.Values[last]
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		if v < 30 {
			t.Errorf("%s: only %v%% decrease", row.Name, v)
		}
	}
	if mx-mn > 15 {
		t.Errorf("L1-size sensitivity too large: %v%%..%v%%", mn, mx)
	}
}

func TestAblationDispatch(t *testing.T) {
	r := NewRunner(testOptions())
	for _, id := range []string{"abl-tileorder", "abl-warps", "abl-l1size"} {
		var sink countingWriter
		if err := r.RunExperiment(id, &sink); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if sink == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

func TestAblFIFODepthSaturates(t *testing.T) {
	r := NewRunner(testOptions())
	tbl, err := r.AblFIFODepth()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("%d FIFO points", len(tbl.Rows))
	}
	last := len(tbl.Cols) - 1
	// Deeper FIFOs never hurt, and most of the benefit is in by depth 8:
	// the marginal gain from 8 to 16 is small.
	for i := 1; i < len(tbl.Rows); i++ {
		if tbl.Rows[i].Values[last] < tbl.Rows[i-1].Values[last]-0.02 {
			t.Errorf("speedup regressed from %s (%v) to %s (%v)",
				tbl.Rows[i-1].Name, tbl.Rows[i-1].Values[last],
				tbl.Rows[i].Name, tbl.Rows[i].Values[last])
		}
	}
	d8 := tbl.Rows[3].Values[last]
	d16 := tbl.Rows[4].Values[last]
	if d16-d8 > 0.05 {
		t.Errorf("FIFO benefit not saturating: depth8=%v depth16=%v", d8, d16)
	}
}

func TestCSVRendering(t *testing.T) {
	r := NewRunner(testOptions())
	r.CSV = true
	var buf bytes.Buffer
	if err := r.RunExperiment("fig13", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "series,TRu,CCS,GTr,Avg") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "CG-square,") {
		t.Error("CSV rows missing")
	}
	buf.Reset()
	if err := r.RunExperiment("fig14", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bench,config,min,q1,median,mean,q3,max") {
		t.Error("violin CSV header missing")
	}
}

func TestAblTileSize(t *testing.T) {
	r := NewRunner(testOptions())
	tbl, err := r.AblTileSize()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d tile sizes", len(tbl.Rows))
	}
	last := len(tbl.Cols) - 1
	for i, row := range tbl.Rows {
		// At the test's 1/8 resolution the 64x64 point leaves only a
		// handful of tiles, so decoupling has little to reorder; accept
		// near-parity there and demand real wins at 16 and 32.
		floor := 1.0
		if i == len(tbl.Rows)-1 {
			floor = 0.9
		}
		if row.Values[last] <= floor {
			t.Errorf("%s: DTexL speedup %v, want > %v", row.Name, row.Values[last], floor)
		}
	}
}

func TestAblLateZ(t *testing.T) {
	r := NewRunner(testOptions())
	tbl, err := r.AblLateZ()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d Z modes", len(tbl.Rows))
	}
	last := len(tbl.Cols) - 1
	for _, row := range tbl.Rows {
		if row.Values[last] <= 1.0 {
			t.Errorf("%s: DTexL speedup %v, want > 1 in both Z modes", row.Name, row.Values[last])
		}
	}
}

func TestAblPrefetch(t *testing.T) {
	r := NewRunner(testOptions())
	tbl, err := r.AblPrefetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d prefetch variants", len(tbl.Rows))
	}
	last := len(tbl.Cols) - 1
	byName := map[string]float64{}
	for _, row := range tbl.Rows {
		byName[row.Name] = row.Values[last]
	}
	if byName["DTexL"] <= byName["baseline+prefetch"] {
		t.Errorf("DTexL (%v) not above prefetching alone (%v)",
			byName["DTexL"], byName["baseline+prefetch"])
	}
	if byName["DTexL+prefetch"] < byName["DTexL"]*0.98 {
		t.Errorf("adding prefetch to DTexL regressed it: %v vs %v",
			byName["DTexL+prefetch"], byName["DTexL"])
	}
}

func TestBgIMR(t *testing.T) {
	r := NewRunner(testOptions())
	tbl, err := r.BgIMR()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	last := len(tbl.Cols) - 1
	// IMR must cost more external traffic on average; the factor grows
	// with resolution (the 1 MiB L2 absorbs much of it at 1/8 scale).
	if tbl.Rows[0].Values[last] <= 1.05 {
		t.Errorf("IMR/TBR DRAM ratio = %v, want > 1.05", tbl.Rows[0].Values[last])
	}
}

func TestRunExperimentAllIDs(t *testing.T) {
	// Drive every experiment end to end through the dispatcher, text and
	// CSV, over a single benchmark at tiny scale.
	opt := ScaledOptions(8)
	opt.Benchmarks = []string{"SWa"}
	for _, csv := range []bool{false, true} {
		r := NewRunner(opt)
		r.CSV = csv
		for _, id := range ExperimentIDs() {
			var buf bytes.Buffer
			if err := r.RunExperiment(id, &buf); err != nil {
				t.Fatalf("csv=%v %s: %v", csv, id, err)
			}
			if buf.Len() == 0 {
				t.Errorf("csv=%v %s produced no output", csv, id)
			}
		}
	}
}

// TestWarmAllMatchesSerial: neither Warm's pool nor the per-row fan-out
// may change a byte. Fig. 17 after a parallel WarmAll matches a serial
// Runner's, and every ablation plus bg-imr — rendered without a warm-up,
// so each row's simulations run on the pool — renders the same bytes at
// Parallelism 1 and 4.
func TestWarmAllMatchesSerial(t *testing.T) {
	opt := ScaledOptions(8)
	opt.Benchmarks = []string{"SWa"}

	serial := NewRunner(opt)
	serial.Parallelism = 1
	fSerial, err := serial.Fig17()
	if err != nil {
		t.Fatal(err)
	}

	parallel := NewRunner(opt)
	parallel.Parallelism = 4
	if err := parallel.WarmAll(); err != nil {
		t.Fatal(err)
	}
	fPar, err := parallel.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fSerial.Rows {
		for j := range fSerial.Rows[i].Values {
			if fSerial.Rows[i].Values[j] != fPar.Rows[i].Values[j] {
				t.Fatalf("parallel warm changed results: %v vs %v",
					fPar.Rows[i].Values, fSerial.Rows[i].Values)
			}
		}
	}

	opt = ScaledOptions(16)
	opt.Benchmarks = []string{"TRu", "CCS"}
	pars := []int{1, 4}
	runners := make([]*Runner, len(pars))
	for i, par := range pars {
		runners[i] = NewRunner(opt)
		runners[i].Parallelism = par
	}
	for _, id := range ExperimentIDs() {
		if !strings.HasPrefix(id, "abl-") && id != "bg-imr" {
			continue
		}
		outs := make([]bytes.Buffer, len(pars))
		for i, r := range runners {
			if err := r.RunExperiment(id, &outs[i]); err != nil {
				t.Fatalf("%s at Parallelism %d: %v", id, pars[i], err)
			}
		}
		if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
			t.Errorf("%s at Parallelism 4 differs from serial:\n%s\nwant:\n%s", id, &outs[1], &outs[0])
		}
	}
}

func TestWarmErrorPropagates(t *testing.T) {
	opt := ScaledOptions(8)
	r := NewRunner(opt)
	r.Parallelism = 2
	err := r.Warm([]runJob{
		{Alias: "SWa", Policy: core.Baseline()},
		{Alias: "???", Policy: core.Baseline()},
	})
	if err == nil {
		t.Error("bad job did not propagate an error")
	}
}

func TestAblNUCA(t *testing.T) {
	r := NewRunner(testOptions())
	tbl, err := r.AblNUCA()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	last := len(tbl.Cols) - 1
	vals := map[string]float64{}
	for _, row := range tbl.Rows {
		vals[row.Name] = row.Values[last]
	}
	// NUCA kills replication by construction: its L2 decrease must be at
	// least DTexL's (which leaves some intra-tile replication behind).
	if vals["L2 dec%: S-NUCA (FG, coupled)"] < vals["L2 dec%: DTexL"] {
		t.Errorf("NUCA L2 decrease (%v) below DTexL (%v)",
			vals["L2 dec%: S-NUCA (FG, coupled)"], vals["L2 dec%: DTexL"])
	}
	// Both approaches speed the GPU up.
	for _, name := range []string{"speedup: S-NUCA (FG, coupled)", "speedup: S-NUCA + decoupled", "speedup: DTexL"} {
		if vals[name] <= 1 {
			t.Errorf("%s = %v, want > 1", name, vals[name])
		}
	}
}

func TestAblWarpSchedInsensitive(t *testing.T) {
	r := NewRunner(testOptions())
	tbl, err := r.AblWarpSched()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d policies", len(tbl.Rows))
	}
	last := len(tbl.Cols) - 1
	mn, mx := tbl.Rows[0].Values[last], tbl.Rows[0].Values[last]
	for _, row := range tbl.Rows {
		v := row.Values[last]
		if v <= 1 {
			t.Errorf("%s: DTexL speedup %v", row.Name, v)
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	// The claim: warp scheduling is orthogonal — the spread stays small.
	if mx-mn > 0.05 {
		t.Errorf("warp-scheduling sensitivity too large: %v..%v", mn, mx)
	}
}

func TestRenderSVG(t *testing.T) {
	opt := ScaledOptions(8)
	opt.Benchmarks = []string{"SWa"}
	r := NewRunner(opt)
	for _, id := range []string{"fig2", "fig14", "fig17"} {
		var buf bytes.Buffer
		if err := r.RenderSVG(id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := buf.String()
		if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
			t.Errorf("%s: not an SVG document", id)
		}
	}
	var buf bytes.Buffer
	if err := r.RenderSVG("tab1", &buf); err == nil {
		t.Error("tab1 rendered as SVG")
	}
	if err := r.RenderSVG("nope", &buf); err == nil {
		t.Error("unknown id accepted")
	}
}
