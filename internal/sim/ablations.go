package sim

import (
	"context"
	"fmt"
	"runtime/debug"

	"dtexl/internal/core"
	"dtexl/internal/energy"
	"dtexl/internal/pipeline"
	"dtexl/internal/sched"
	"dtexl/internal/tileorder"
	"dtexl/internal/trace"
)

// Ablations beyond the paper's figures, for the design choices DESIGN.md
// calls out: how much each ingredient of DTexL (tile order, warp-level
// latency hiding, L1 capacity) contributes.

// RunOneWith simulates one benchmark under a policy with an extra
// configuration mutation applied after the policy (for ablations that
// change the machine rather than the schedule). With opt.Frames > 1 it
// simulates that many animation frames against warm caches and
// aggregates the metrics.
func RunOneWith(alias string, pol core.Policy, opt Options, mutate func(*pipeline.Config)) (*RunResult, error) {
	return RunOneWithContext(context.Background(), alias, pol, opt, mutate)
}

// RunOneWithContext is RunOneWith under a cancelable context: canceling
// ctx aborts the simulation at the next executor watchdog poll.
func RunOneWithContext(ctx context.Context, alias string, pol core.Policy, opt Options, mutate func(*pipeline.Config)) (*RunResult, error) {
	prof, err := trace.ProfileByAlias(alias)
	if err != nil {
		return nil, err
	}
	cfg := pipeline.DefaultConfig()
	cfg.Width, cfg.Height = opt.Width, opt.Height
	pol.Apply(&cfg)
	if mutate != nil {
		mutate(&cfg)
	}
	frames := opt.Frames
	if frames < 1 {
		frames = 1
	}
	scenes := trace.GenerateAnimation(prof, cfg.Width, cfg.Height, opt.Seed, frames)
	ms, err := pipeline.RunFramesContext(ctx, scenes, cfg)
	if err != nil {
		return nil, fmt.Errorf("sim: %s/%s: %w", alias, pol.Name, err)
	}
	m := aggregateMetrics(ms)
	return &RunResult{
		Bench:   alias,
		Policy:  pol,
		Metrics: m,
		Energy:  energy.DefaultModel().Estimate(m.Events),
	}, nil
}

// AblTileOrder isolates the tile order: DTexL's grouping, assignment and
// decoupling held fixed while the Tiling Engine walks each implemented
// traversal. Reports the L2-access decrease vs the coupled baseline.
func (r *Runner) AblTileOrder() (*Table, error) {
	t := &Table{
		ID:     "abl-tileorder",
		Title:  "Ablation: tile order under fixed CG-square + flp2 + decoupled",
		Metric: "% decrease in total L2 accesses vs non-decoupled FG-xshift2",
		Cols:   r.cols(),
	}
	for _, ord := range tileorder.Kinds() {
		pol := core.DTexL()
		pol.Name = "order:" + ord.String()
		pol.TileOrder = ord
		if ord == tileorder.SOrder || ord == tileorder.Scanline {
			// flp2's mirror bookkeeping is meaningful for any order; keep
			// the assignment fixed so only the traversal varies.
			pol.Assignment = sched.Flp2
		}
		row, err := r.rowCells(pol.Name, func(alias string) (float64, error) {
			base, err := r.run(alias, core.Baseline(), false)
			if err != nil {
				return 0, err
			}
			res, err := r.run(alias, pol, false)
			if err != nil {
				return 0, err
			}
			return pctDecrease(base.Metrics.L2Accesses(), res.Metrics.L2Accesses()), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: pol.Name, Values: withMean(row)})
	}
	return t, nil
}

// AblWarpSlots sweeps the SCs' warp slots. Extra warps cannot rescue the
// baseline — its miss stream saturates the L1 fill ports whatever the
// occupancy — while DTexL's low-miss streams convert every added warp
// into hidden latency, so DTexL's advantage *grows* with warp slots.
// This quantifies the paper's §V-C2 argument from the other side: the
// scheduler, not multithreading depth, is what removes the memory
// bottleneck.
func (r *Runner) AblWarpSlots() (*Table, error) {
	t := &Table{
		ID:     "abl-warps",
		Title:  "Ablation: DTexL speedup vs shader-core warp slots",
		Metric: "FPS speedup of DTexL over the coupled baseline at equal warp slots",
		Cols:   r.cols(),
	}
	for _, slots := range []int{2, 4, 8, 16} {
		mutate := func(cfg *pipeline.Config) { cfg.WarpSlots = slots }
		name := fmt.Sprintf("%d warps", slots)
		row, err := r.rowCells(name, func(alias string) (float64, error) {
			base, err := r.RunOneWith(alias, core.Baseline(), mutate)
			if err != nil {
				return 0, err
			}
			res, err := r.RunOneWith(alias, core.DTexL(), mutate)
			if err != nil {
				return 0, err
			}
			return float64(base.Metrics.Cycles) / float64(res.Metrics.Cycles), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: name, Values: withGeoMean(row)})
	}
	return t, nil
}

// AblFIFODepth sweeps the quad-FIFO depth that bounds how far the
// decoupled units may drift apart (Fig. 10 shows units "two tiles
// ahead"). A depth of one tile degenerates to near-coupled behaviour;
// the benefit saturates after a few tiles, which is why the paper's
// change is cheap.
func (r *Runner) AblFIFODepth() (*Table, error) {
	t := &Table{
		ID:     "abl-fifo",
		Title:  "Ablation: DTexL speedup vs decoupling FIFO depth",
		Metric: "FPS speedup of DTexL over the coupled baseline at the given FIFO depth",
		Cols:   r.cols(),
	}
	for _, depth := range []int{1, 2, 4, 8, 16} {
		mutate := func(cfg *pipeline.Config) { cfg.FIFODepth = depth }
		name := fmt.Sprintf("depth %d", depth)
		row, err := r.rowCells(name, func(alias string) (float64, error) {
			base, err := r.run(alias, core.Baseline(), false)
			if err != nil {
				return 0, err
			}
			res, err := r.RunOneWith(alias, core.DTexL(), mutate)
			if err != nil {
				return 0, err
			}
			return float64(base.Metrics.Cycles) / float64(res.Metrics.Cycles), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: name, Values: withGeoMean(row)})
	}
	return t, nil
}

// AblTileSize sweeps the tile side (Table II fixes 32): smaller tiles
// cross barriers more often (hurting the coupled baseline) and give each
// Subtile less spatial locality; larger tiles do the opposite but need
// bigger on-chip buffers.
func (r *Runner) AblTileSize() (*Table, error) {
	t := &Table{
		ID:     "abl-tilesize",
		Title:  "Ablation: DTexL speedup vs tile size",
		Metric: "FPS speedup of DTexL over the coupled baseline at equal tile size",
		Cols:   r.cols(),
	}
	for _, ts := range []int{16, 32, 64} {
		mutate := func(cfg *pipeline.Config) { cfg.TileSize = ts }
		name := fmt.Sprintf("%dx%d tiles", ts, ts)
		row, err := r.rowCells(name, func(alias string) (float64, error) {
			base, err := r.RunOneWith(alias, core.Baseline(), mutate)
			if err != nil {
				return 0, err
			}
			res, err := r.RunOneWith(alias, core.DTexL(), mutate)
			if err != nil {
				return 0, err
			}
			return float64(base.Metrics.Cycles) / float64(res.Metrics.Cycles), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: name, Values: withGeoMean(row)})
	}
	return t, nil
}

// AblLateZ compares DTexL's benefit under Early-Z versus Late-Z
// (shader-written depth, §II-A): with overdraw paid in full, there is
// more fragment work per tile and proportionally more to win back.
func (r *Runner) AblLateZ() (*Table, error) {
	t := &Table{
		ID:     "abl-latez",
		Title:  "Ablation: DTexL speedup with Early-Z vs Late-Z",
		Metric: "FPS speedup of DTexL over the coupled baseline in the same Z mode",
		Cols:   r.cols(),
	}
	for _, late := range []bool{false, true} {
		late := late
		mutate := func(cfg *pipeline.Config) { cfg.LateZ = late }
		name := "Early-Z"
		if late {
			name = "Late-Z"
		}
		row, err := r.rowCells(name, func(alias string) (float64, error) {
			base, err := r.RunOneWith(alias, core.Baseline(), mutate)
			if err != nil {
				return 0, err
			}
			res, err := r.RunOneWith(alias, core.DTexL(), mutate)
			if err != nil {
				return 0, err
			}
			return float64(base.Metrics.Cycles) / float64(res.Metrics.Cycles), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: name, Values: withGeoMean(row)})
	}
	return t, nil
}

// AblL1Size sweeps the private texture L1 capacity. The relative benefit
// is remarkably flat: tiny L1s lose some headroom to capacity misses that
// hit both schedulers, huge L1s absorb part of the replication on their
// own, and in between the scheduler does the work — DTexL's win does not
// depend on a lucky cache size.
func (r *Runner) AblL1Size() (*Table, error) {
	t := &Table{
		ID:     "abl-l1size",
		Title:  "Ablation: DTexL L2-access decrease vs private L1 capacity",
		Metric: "% decrease in total L2 accesses (DTexL vs baseline) at equal L1 size",
		Cols:   r.cols(),
	}
	for _, kib := range []int{8, 16, 32, 64} {
		mutate := func(cfg *pipeline.Config) { cfg.Hierarchy.L1Tex.SizeBytes = kib << 10 }
		name := fmt.Sprintf("%dKiB L1", kib)
		row, err := r.rowCells(name, func(alias string) (float64, error) {
			base, err := r.RunOneWith(alias, core.Baseline(), mutate)
			if err != nil {
				return 0, err
			}
			res, err := r.RunOneWith(alias, core.DTexL(), mutate)
			if err != nil {
				return 0, err
			}
			return pctDecrease(base.Metrics.L2Accesses(), res.Metrics.L2Accesses()), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: name, Values: withMean(row)})
	}
	return t, nil
}

// AblPrefetch positions DTexL against decoupled access/execute texture
// prefetching (Arnau et al., §VI): prefetching hides latency but creates
// no L1 fill bandwidth, so it cannot recover what scheduling for
// locality recovers — and the two compose.
func (r *Runner) AblPrefetch() (*Table, error) {
	t := &Table{
		ID:     "abl-prefetch",
		Title:  "Ablation: texture prefetching vs (and with) DTexL",
		Metric: "FPS speedup over the coupled baseline",
		Cols:   r.cols(),
	}
	type variant struct {
		name string
		pol  core.Policy
		pf   bool
	}
	variants := []variant{
		{"baseline+prefetch", core.Baseline(), true},
		{"DTexL", core.DTexL(), false},
		{"DTexL+prefetch", core.DTexL(), true},
	}
	for _, v := range variants {
		v := v
		mutate := func(cfg *pipeline.Config) { cfg.TexturePrefetch = v.pf }
		row, err := r.rowCells(v.name, func(alias string) (float64, error) {
			base, err := r.run(alias, core.Baseline(), false)
			if err != nil {
				return 0, err
			}
			res, err := r.RunOneWith(alias, v.pol, mutate)
			if err != nil {
				return 0, err
			}
			return float64(base.Metrics.Cycles) / float64(res.Metrics.Cycles), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: v.name, Values: withGeoMean(row)})
	}
	return t, nil
}

// BgIMR reproduces the background claim TBR rests on (§II, Antochi et
// al.): a tile-based pipeline keeps the Z/Color working set on chip and
// cuts external memory traffic by roughly 2x versus immediate-mode
// rendering. Both machines share every other parameter.
func (r *Runner) BgIMR() (*Table, error) {
	t := &Table{
		ID:     "bg-imr",
		Title:  "Background: TBR vs immediate-mode rendering",
		Metric: "IMR / TBR ratio per benchmark",
		Cols:   r.cols(),
	}
	// One IMR run feeds both rows: a failed benchmark goes NA in both.
	rows, err := r.sharedRows("IMR/TBR", 2, func(alias string) ([]float64, error) {
		tbr, err := r.run(alias, core.Baseline(), false)
		if err != nil {
			return nil, err
		}
		cfg := pipeline.DefaultConfig()
		cfg.Width, cfg.Height = r.Opt.Width, r.Opt.Height
		scene, err := r.scene(alias)
		if err != nil {
			return nil, err
		}
		imr, err := r.runIMR(scene, cfg)
		if err != nil {
			return nil, err
		}
		return []float64{
			float64(imr.Events.DRAMAccesses) / float64(tbr.Metrics.Events.DRAMAccesses),
			float64(imr.Cycles) / float64(tbr.Metrics.Cycles),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		TableRow{Name: "DRAM traffic (IMR/TBR)", Values: withMean(rows[0])},
		TableRow{Name: "cycles (IMR/TBR)", Values: withMean(rows[1])},
	)
	return t, nil
}

// runIMR executes the immediate-mode baseline. IMR runs live outside the
// memo layer, so panic recovery and the Runner's context/timeout are
// applied here rather than inherited from it.
func (r *Runner) runIMR(scene *trace.Scene, cfg pipeline.Config) (m *pipeline.Metrics, err error) {
	ctx := r.baseCtx()
	if r.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.RunTimeout)
		defer cancel()
	}
	defer func() {
		if rec := recover(); rec != nil {
			m, err = nil, fmt.Errorf("sim: IMR simulation panicked: %v\n%s", rec, debug.Stack())
		}
	}()
	return pipeline.RunIMRContext(ctx, scene, cfg)
}

// AblNUCA compares DTexL against the other way to kill L1 replication the
// paper cites [6]: a shared, address-interleaved (static NUCA) L1
// organization. NUCA removes replication by construction but taxes most
// accesses with a remote-bank hop and leaves the coupled barriers in
// place, so it trades the paper's two problems differently than DTexL.
func (r *Runner) AblNUCA() (*Table, error) {
	t := &Table{
		ID:     "abl-nuca",
		Title:  "Ablation: S-NUCA shared L1s vs DTexL",
		Metric: "speedup over the coupled baseline / % L2-access decrease",
		Cols:   r.cols(),
	}
	type variant struct {
		name string
		pol  core.Policy
		nuca bool
	}
	variants := []variant{
		{"S-NUCA (FG, coupled)", core.Baseline(), true},
		{"S-NUCA + decoupled", core.BaselineDecoupled(), true},
		{"DTexL", core.DTexL(), false},
	}
	for _, v := range variants {
		v := v
		mutate := func(cfg *pipeline.Config) { cfg.Hierarchy.NUCA = v.nuca }
		// One run feeds both rows; a failed benchmark goes NA in both.
		rows, err := r.sharedRows(v.name, 2, func(alias string) ([]float64, error) {
			base, err := r.run(alias, core.Baseline(), false)
			if err != nil {
				return nil, err
			}
			res, err := r.RunOneWith(alias, v.pol, mutate)
			if err != nil {
				return nil, err
			}
			return []float64{
				float64(base.Metrics.Cycles) / float64(res.Metrics.Cycles),
				pctDecrease(base.Metrics.L2Accesses(), res.Metrics.L2Accesses()),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows,
			TableRow{Name: "speedup: " + v.name, Values: withGeoMean(rows[0])},
			TableRow{Name: "L2 dec%: " + v.name, Values: withMean(rows[1])},
		)
	}
	return t, nil
}

// AblWarpSched sweeps the intra-SC warp scheduling policy (the axis the
// paper's §VI related work explores for GPGPU): DTexL's gain comes from
// where quads land, not from which resident warp issues next, so the
// speedup is expected to be insensitive to it.
func (r *Runner) AblWarpSched() (*Table, error) {
	t := &Table{
		ID:     "abl-warpsched",
		Title:  "Ablation: DTexL speedup vs intra-SC warp scheduling policy",
		Metric: "FPS speedup of DTexL over the coupled baseline under the same policy",
		Cols:   r.cols(),
	}
	for _, pol := range []pipeline.WarpSchedPolicy{
		pipeline.WarpSchedEarliest, pipeline.WarpSchedRoundRobin, pipeline.WarpSchedYoungest,
	} {
		pol := pol
		mutate := func(cfg *pipeline.Config) { cfg.WarpSched = pol }
		row, err := r.rowCells(pol.String(), func(alias string) (float64, error) {
			base, err := r.RunOneWith(alias, core.Baseline(), mutate)
			if err != nil {
				return 0, err
			}
			res, err := r.RunOneWith(alias, core.DTexL(), mutate)
			if err != nil {
				return 0, err
			}
			return float64(base.Metrics.Cycles) / float64(res.Metrics.Cycles), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: pol.String(), Values: withGeoMean(row)})
	}
	return t, nil
}
