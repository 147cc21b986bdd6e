package dtexl

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment end to
// end (every simulation run it needs) and reports the figure's headline
// numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Benchmarks default to 1/4 of the
// Table II resolution over the full ten-game suite; -short drops to 1/8
// over a three-game subset. cmd/dtexlbench prints the full per-benchmark
// rows at any scale, including the paper's native 1960x768.

import (
	"io"
	"testing"

	"dtexl/internal/sim"
)

// benchOptions picks the benchmark operating point.
func benchOptions(b *testing.B) sim.Options {
	b.Helper()
	if testing.Short() {
		o := sim.ScaledOptions(8)
		o.Benchmarks = []string{"TRu", "CCS", "GTr"}
		return o
	}
	return sim.ScaledOptions(4)
}

func lastCol(row sim.TableRow) float64 { return row.Values[len(row.Values)-1] }

func findRow(t *sim.Table, name string) sim.TableRow {
	for _, r := range t.Rows {
		if r.Name == name {
			return r
		}
	}
	return sim.TableRow{}
}

// BenchmarkFig1 regenerates Figure 1: thread-per-SC imbalance of the
// load-balancing vs texture-locality schedulers.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("fig1")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "TL (CG-square)")), "TL/LB_imbalance_x")
	}
}

// BenchmarkFig2 regenerates Figure 2: normalized L2 accesses of the
// texture-locality scheduler.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("fig2")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(t.Rows[0]), "TL/LB_L2_ratio")
	}
}

// BenchmarkFig11 regenerates Figure 11: L2 accesses across the ten Fig. 6
// quad groupings. Reports the paper's headline pair: CG-square and
// CG-yrect normalized L2.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("fig11")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "CG-square")), "CGsquare_L2_ratio")
		b.ReportMetric(lastCol(findRow(t, "CG-yrect")), "CGyrect_L2_ratio")
	}
}

// BenchmarkFig12 regenerates Figure 12: quad-distribution imbalance
// across the groupings (paper: ~6-10x for the CG rectangles).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("fig12")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "CG-square")), "CGsquare_imbalance_x")
		b.ReportMetric(lastCol(findRow(t, "CG-yrect")), "CGyrect_imbalance_x")
	}
}

// BenchmarkFig13 regenerates Figure 13: CG speedups WITHOUT decoupling
// (paper: ~1.0 — the null result).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("fig13")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "CG-square")), "CGsquare_speedup")
		b.ReportMetric(lastCol(findRow(t, "CG-yrect")), "CGyrect_speedup")
	}
}

// BenchmarkFig14 regenerates Figure 14: violins of per-tile SC
// execution-time imbalance. Reports the suite-mean of the FG and CG
// violin means (%).
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Violin("fig14")
		if err != nil {
			b.Fatal(err)
		}
		fg, cg, nfg, ncg := 0.0, 0.0, 0, 0
		for _, row := range t.Rows {
			if row.Config == "FG-xshift2" {
				fg += row.Summary.Mean
				nfg++
			} else {
				cg += row.Summary.Mean
				ncg++
			}
		}
		b.ReportMetric(fg/float64(nfg), "FG_time_dev_%")
		b.ReportMetric(cg/float64(ncg), "CG_time_dev_%")
	}
}

// BenchmarkFig15 regenerates Figure 15: violins of per-tile quad-count
// imbalance.
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Violin("fig15")
		if err != nil {
			b.Fatal(err)
		}
		fg, cg, nfg, ncg := 0.0, 0.0, 0, 0
		for _, row := range t.Rows {
			if row.Config == "FG-xshift2" {
				fg += row.Summary.Mean
				nfg++
			} else {
				cg += row.Summary.Mean
				ncg++
			}
		}
		b.ReportMetric(fg/float64(nfg), "FG_quad_dev_%")
		b.ReportMetric(cg/float64(ncg), "CG_quad_dev_%")
	}
}

// BenchmarkFig16 regenerates Figure 16: L2-access decrease of the eight
// subtile mappings plus the single-SC upper bound (paper: ~40.7% const,
// ~46.5-46.8% flips, gap to the bound ~80% closed).
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("fig16")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "Zorder-const")), "Zconst_L2dec_%")
		b.ReportMetric(lastCol(findRow(t, "HLB-flp2")), "HLBflp2_L2dec_%")
		b.ReportMetric(lastCol(findRow(t, "UpperBound")), "bound_L2dec_%")
	}
}

// BenchmarkFig17 regenerates Figure 17: DTexL and decoupled-baseline
// speedups (paper: 1.2x and 1.09x).
func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("fig17")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "DTexL(HLB-flp2)")), "DTexL_speedup")
		b.ReportMetric(lastCol(findRow(t, "baseline-decoupled")), "FGdec_speedup")
	}
}

// BenchmarkFig18 regenerates Figure 18: total-GPU-energy decrease
// (paper: 6.3% DTexL, 3% decoupled baseline).
func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("fig18")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "DTexL(HLB-flp2)")), "DTexL_energy_dec_%")
		b.ReportMetric(lastCol(findRow(t, "baseline-decoupled")), "FGdec_energy_dec_%")
	}
}

// BenchmarkTab1 regenerates Table I: the benchmark characterization.
func BenchmarkTab1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		if err := r.Table1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab2 regenerates Table II: the simulation parameters.
func BenchmarkTab2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := sim.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblTileOrder, BenchmarkAblWarpSlots and BenchmarkAblL1Size run
// the ablations beyond the paper that DESIGN.md calls out.
func BenchmarkAblTileOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("abl-tileorder")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "order:hilbert-rect")), "hilbertrect_L2dec_%")
		b.ReportMetric(lastCol(findRow(t, "order:scanline")), "scanline_L2dec_%")
	}
}

func BenchmarkAblWarpSlots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("abl-warps")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "2 warps")), "speedup_2warps")
		b.ReportMetric(lastCol(findRow(t, "16 warps")), "speedup_16warps")
	}
}

func BenchmarkAblL1Size(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("abl-l1size")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "8KiB L1")), "L2dec_8KiB_%")
		b.ReportMetric(lastCol(findRow(t, "64KiB L1")), "L2dec_64KiB_%")
	}
}

func BenchmarkAblFIFODepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("abl-fifo")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "depth 1")), "speedup_depth1")
		b.ReportMetric(lastCol(findRow(t, "depth 8")), "speedup_depth8")
	}
}

func BenchmarkAblTileSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("abl-tilesize")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "16x16 tiles")), "speedup_16px")
		b.ReportMetric(lastCol(findRow(t, "64x64 tiles")), "speedup_64px")
	}
}

func BenchmarkAblLateZ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("abl-latez")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "Early-Z")), "speedup_earlyz")
		b.ReportMetric(lastCol(findRow(t, "Late-Z")), "speedup_latez")
	}
}

func BenchmarkAblPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("abl-prefetch")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "baseline+prefetch")), "speedup_prefetch_only")
		b.ReportMetric(lastCol(findRow(t, "DTexL+prefetch")), "speedup_dtexl_prefetch")
	}
}

// BenchmarkFrameBaseline and BenchmarkFrameDTexL measure raw simulator
// throughput for one frame — the conventional performance benchmarks of
// the simulator itself.
func BenchmarkFrameBaseline(b *testing.B) {
	benchFrame(b, "baseline")
}

func BenchmarkFrameDTexL(b *testing.B) {
	benchFrame(b, "DTexL")
}

func benchFrame(b *testing.B, policy string) {
	b.Helper()
	opt := benchOptions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{
			Benchmark: "TRu",
			Policy:    policy,
			Width:     opt.Width,
			Height:    opt.Height,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.FPS, "simulated_fps")
		}
	}
}

// BenchmarkSuiteSweep is the end-to-end evaluation benchmark: one
// iteration warms every simulation the paper's figures need and then
// renders all experiments, exactly the shape of `dtexlbench -exp all`.
// This is the number the memoization layers (scene store, prepared
// frames, config-keyed run memo) are judged by; it reports the phase
// split and the memo hit rate alongside wall time.
func BenchmarkSuiteSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		if err := r.WarmAll(); err != nil {
			b.Fatal(err)
		}
		for _, id := range sim.ExperimentIDs() {
			if err := r.RunExperiment(id, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		if i == 0 {
			tm := r.Timing()
			b.ReportMetric(float64(tm.SimHits), "memo_hits")
			b.ReportMetric(tm.Prepare.Seconds(), "prep_s")
			b.ReportMetric(tm.Raster.Seconds(), "raster_s")
		}
	}
}

// BenchmarkBgIMR runs the TBR-vs-IMR background comparison (§II,
// Antochi et al.'s external-traffic factor).
func BenchmarkBgIMR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("bg-imr")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "DRAM traffic (IMR/TBR)")), "IMR/TBR_dram_x")
	}
}

// BenchmarkAblNUCA compares DTexL with the S-NUCA shared-L1 alternative.
func BenchmarkAblNUCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("abl-nuca")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "speedup: S-NUCA (FG, coupled)")), "speedup_nuca")
		b.ReportMetric(lastCol(findRow(t, "L2 dec%: S-NUCA (FG, coupled)")), "L2dec_nuca_%")
	}
}

// BenchmarkAblWarpSched sweeps the intra-SC warp scheduler policies.
func BenchmarkAblWarpSched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sim.NewRunner(benchOptions(b))
		t, err := r.Table("abl-warpsched")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastCol(findRow(t, "earliest-ready")), "speedup_earliest")
		b.ReportMetric(lastCol(findRow(t, "round-robin")), "speedup_rr")
	}
}
