package sim

import (
	"context"
	"fmt"

	"dtexl/internal/core"
	"dtexl/internal/energy"
	"dtexl/internal/pipeline"
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
	key := newSimKey(opt, alias, pol)
	if mutate != nil {
		mutate(&key.Cfg)
	}
	scenes := trace.GenerateAnimation(prof, opt.Width, opt.Height, opt.Seed, key.Frames)
	ms, err := pipeline.RunFramesContext(ctx, scenes, key.Cfg)
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

// ablTileOrder isolates the tile order: DTexL's grouping, flp2
// assignment and decoupling held fixed while the Tiling Engine walks
// each implemented traversal. Reports the L2-access decrease vs the
// coupled baseline.
func ablTileOrder() *experiment {
	e := &experiment{id: "abl-tileorder",
		title:  "Ablation: tile order under fixed CG-square + flp2 + decoupled",
		metric: "% decrease in total L2 accesses vs non-decoupled FG-xshift2"}
	for _, ord := range tileorder.Kinds() {
		dtexl := cell("DTexL").with(Override{TileOrder: ord.String()})
		e.rows = append(e.rows, series{"order:" + ord.String(), []CellSpec{baseline, dtexl}, l2Decrease, false})
	}
	return e
}

// ablWarpSlots sweeps the SCs' warp slots. Extra warps cannot rescue
// the baseline — its miss stream saturates the L1 fill ports whatever
// the occupancy — while DTexL's low-miss streams convert every added
// warp into hidden latency, so DTexL's advantage *grows* with warp
// slots. This quantifies the paper's §V-C2 argument from the other side:
// the scheduler, not multithreading depth, is what removes the memory
// bottleneck.
func ablWarpSlots() *experiment {
	var names []string
	var ovs []Override
	for _, slots := range []int{2, 4, 8, 16} {
		names = append(names, fmt.Sprintf("%d warps", slots))
		ovs = append(ovs, Override{WarpSlots: slots})
	}
	return &experiment{id: "abl-warps",
		title:  "Ablation: DTexL speedup vs shader-core warp slots",
		metric: "FPS speedup of DTexL over the coupled baseline at equal warp slots",
		rows:   speedups(cell("DTexL"), true, names, ovs)}
}

// ablFIFODepth sweeps the quad-FIFO depth that bounds how far the
// decoupled units may drift apart (Fig. 10 shows units "two tiles
// ahead"). A depth of one tile degenerates to near-coupled behaviour;
// the benefit saturates after a few tiles, which is why the paper's
// change is cheap.
func ablFIFODepth() *experiment {
	var names []string
	var ovs []Override
	for _, depth := range []int{1, 2, 4, 8, 16} {
		names = append(names, fmt.Sprintf("depth %d", depth))
		ovs = append(ovs, Override{FIFODepth: depth})
	}
	return &experiment{id: "abl-fifo",
		title:  "Ablation: DTexL speedup vs decoupling FIFO depth",
		metric: "FPS speedup of DTexL over the coupled baseline at the given FIFO depth",
		rows:   speedups(cell("DTexL"), false, names, ovs)}
}

// ablTileSize sweeps the tile side (Table II fixes 32): smaller tiles
// cross barriers more often (hurting the coupled baseline) and give each
// Subtile less spatial locality; larger tiles do the opposite but need
// bigger on-chip buffers.
func ablTileSize() *experiment {
	var names []string
	var ovs []Override
	for _, ts := range []int{16, 32, 64} {
		names = append(names, fmt.Sprintf("%dx%d tiles", ts, ts))
		ovs = append(ovs, Override{TileSize: ts})
	}
	return &experiment{id: "abl-tilesize",
		title:  "Ablation: DTexL speedup vs tile size",
		metric: "FPS speedup of DTexL over the coupled baseline at equal tile size",
		rows:   speedups(cell("DTexL"), true, names, ovs)}
}

// ablLateZ compares DTexL's benefit under Early-Z versus Late-Z
// (shader-written depth, §II-A): with overdraw paid in full, there is
// more fragment work per tile and proportionally more to win back.
func ablLateZ() *experiment {
	return &experiment{id: "abl-latez",
		title:  "Ablation: DTexL speedup with Early-Z vs Late-Z",
		metric: "FPS speedup of DTexL over the coupled baseline in the same Z mode",
		rows:   speedups(cell("DTexL"), true, []string{"Early-Z", "Late-Z"}, []Override{{}, {LateZ: true}})}
}

// ablL1Size sweeps the private texture L1 capacity. The relative
// benefit is remarkably flat: tiny L1s lose some headroom to capacity
// misses that hit both schedulers, huge L1s absorb part of the
// replication on their own, and in between the scheduler does the work
// — DTexL's win does not depend on a lucky cache size.
func ablL1Size() *experiment {
	e := &experiment{id: "abl-l1size",
		title:  "Ablation: DTexL L2-access decrease vs private L1 capacity",
		metric: "% decrease in total L2 accesses (DTexL vs baseline) at equal L1 size"}
	for _, kib := range []int{8, 16, 32, 64} {
		o := Override{L1KiB: kib}
		e.rows = append(e.rows, series{fmt.Sprintf("%dKiB L1", kib),
			[]CellSpec{baseline.with(o), cell("DTexL").with(o)}, l2Decrease, false})
	}
	return e
}

// ablPrefetch positions DTexL against decoupled access/execute texture
// prefetching (Arnau et al., §VI): prefetching hides latency but
// creates no L1 fill bandwidth, so it cannot recover what scheduling for
// locality recovers — and the two compose.
func ablPrefetch() *experiment {
	pf := Override{Prefetch: true}
	return &experiment{id: "abl-prefetch",
		title:  "Ablation: texture prefetching vs (and with) DTexL",
		metric: "FPS speedup over the coupled baseline",
		rows: []series{
			{"baseline+prefetch", []CellSpec{baseline, baseline.with(pf)}, speedup, true},
			{"DTexL", []CellSpec{baseline, cell("DTexL")}, speedup, true},
			{"DTexL+prefetch", []CellSpec{baseline, cell("DTexL").with(pf)}, speedup, true},
		}}
}

// bgIMR reproduces the background claim TBR rests on (§II, Antochi et
// al.): a tile-based pipeline keeps the Z/Color working set on chip and
// cuts external memory traffic by roughly 2x versus immediate-mode
// rendering. Both machines share every other parameter; one IMR run
// feeds both rows.
func bgIMR() *experiment {
	cells := []CellSpec{baseline, {Policy: baseline.Policy, IMR: true}}
	return &experiment{id: "bg-imr",
		title:  "Background: TBR vs immediate-mode rendering",
		metric: "IMR / TBR ratio per benchmark",
		rows: []series{
			{"DRAM traffic (IMR/TBR)", cells, func(rs []*RunResult) float64 {
				return float64(rs[1].Metrics.Events.DRAMAccesses) / float64(rs[0].Metrics.Events.DRAMAccesses)
			}, false},
			{"cycles (IMR/TBR)", cells, func(rs []*RunResult) float64 {
				return float64(rs[1].Metrics.Cycles) / float64(rs[0].Metrics.Cycles)
			}, false},
		}}
}

// ablNUCA compares DTexL against the other way to kill L1 replication
// the paper cites [6]: a shared, address-interleaved (static NUCA) L1
// organization. NUCA removes replication by construction but taxes most
// accesses with a remote-bank hop and leaves the coupled barriers in
// place, so it trades the paper's two problems differently than DTexL.
func ablNUCA() *experiment {
	e := &experiment{id: "abl-nuca",
		title:  "Ablation: S-NUCA shared L1s vs DTexL",
		metric: "speedup over the coupled baseline / % L2-access decrease"}
	nuca := Override{NUCA: true}
	for _, v := range []struct {
		name string
		cell CellSpec
	}{
		{"S-NUCA (FG, coupled)", baseline.with(nuca)},
		{"S-NUCA + decoupled", cell(core.BaselineDecoupled().Name).with(nuca)},
		{"DTexL", cell("DTexL")},
	} {
		cells := []CellSpec{baseline, v.cell}
		e.rows = append(e.rows,
			series{"speedup: " + v.name, cells, speedup, true},
			series{"L2 dec%: " + v.name, cells, l2Decrease, false})
	}
	return e
}

// ablWarpSched sweeps the intra-SC warp scheduling policy (the axis the
// paper's §VI related work explores for GPGPU): DTexL's gain comes from
// where quads land, not from which resident warp issues next, so the
// speedup is expected to be insensitive to it.
func ablWarpSched() *experiment {
	var names []string
	var ovs []Override
	for _, p := range []pipeline.WarpSchedPolicy{
		pipeline.WarpSchedEarliest, pipeline.WarpSchedRoundRobin, pipeline.WarpSchedYoungest,
	} {
		names = append(names, p.String())
		ovs = append(ovs, Override{WarpSched: p.String()})
	}
	return &experiment{id: "abl-warpsched",
		title:  "Ablation: DTexL speedup vs intra-SC warp scheduling policy",
		metric: "FPS speedup of DTexL over the coupled baseline under the same policy",
		rows:   speedups(cell("DTexL"), true, names, ovs)}
}
