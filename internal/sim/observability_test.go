package sim

import (
	"context"
	"sync"
	"testing"

	"dtexl/internal/pipeline"
)

// sweepResult is one simulated frame of the conservation sweep, labeled
// for error messages.
type sweepResult struct {
	name string
	m    *pipeline.Metrics
}

var (
	sweepOnce sync.Once
	sweepRes  []sweepResult
	sweepErr  error
)

// stallSweep simulates every (benchmark × policy) pair of the evaluation
// suite — coupled and decoupled executors via the policies, plus the IMR
// baseline per benchmark — once at 1/8 scale, shared between the
// conservation tests below. The runner's memo layers make the sweep cost
// one raster phase per distinct effective configuration.
func stallSweep(t *testing.T) []sweepResult {
	t.Helper()
	sweepOnce.Do(func() {
		opt := ScaledOptions(8)
		r := NewRunner(opt)
		r.Parallelism = 4
		var cells []CellSpec
		for _, alias := range opt.aliases() {
			for _, pol := range suitePolicies() {
				cells = append(cells, CellSpec{Bench: alias, Policy: pol.Name})
			}
			cells = append(cells, CellSpec{Bench: alias, Policy: "baseline", IMR: true})
		}
		if sweepErr = r.Warm(cells); sweepErr != nil {
			return
		}
		for _, c := range cells {
			res, err := r.RunCell(context.Background(), c)
			if err != nil {
				sweepErr = err
				return
			}
			sweepRes = append(sweepRes, sweepResult{c.ID(), res.Metrics})
		}
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return sweepRes
}

// TestStallBreakdownConserved is the suite-wide conservation law: for
// every benchmark under every policy and executor, each SC's five stall
// causes partition its clock exactly — Busy + TexWait + BarrierWait +
// QueueEmpty + DrainWait == RasterCycles, with no negative cause — and
// executors without a tile barrier report structurally zero BarrierWait.
func TestStallBreakdownConserved(t *testing.T) {
	for _, sr := range stallSweep(t) {
		m := sr.m
		if len(m.SCBreakdown) != m.Config.NumSC {
			t.Fatalf("%s: SCBreakdown has %d entries, want NumSC=%d", sr.name, len(m.SCBreakdown), m.Config.NumSC)
		}
		for i, b := range m.SCBreakdown {
			if got := b.Total(); got != m.RasterCycles {
				t.Errorf("%s: SC%d breakdown sums to %d, want RasterCycles=%d (%+v)",
					sr.name, i, got, m.RasterCycles, b)
			}
			if b.Busy < 0 || b.TexWait < 0 || b.BarrierWait < 0 || b.QueueEmpty < 0 || b.DrainWait < 0 {
				t.Errorf("%s: SC%d has a negative stall cause: %+v", sr.name, i, b)
			}
		}
		if m.Config.Decoupled {
			if bt := m.BreakdownTotals(); bt.BarrierWait != 0 {
				t.Errorf("%s: decoupled run reports %d barrier-wait cycles, want structural 0",
					sr.name, bt.BarrierWait)
			}
		}
	}
}

// TestIdleCyclesBackCompat pins the derived legacy counter: on every
// frame of the sweep, Events.SCIdleCycles still equals the seed-era
// formula NumSC*RasterCycles − SCBusyCycles bit-for-bit, and the
// breakdown's idle components (everything but Busy) reproduce it, so
// consumers of the old lump and of the new taxonomy can never disagree.
func TestIdleCyclesBackCompat(t *testing.T) {
	for _, sr := range stallSweep(t) {
		m := sr.m
		seedIdle := uint64(int64(m.Config.NumSC)*m.RasterCycles) - m.Events.SCBusyCycles
		if m.Events.SCIdleCycles != seedIdle {
			t.Errorf("%s: SCIdleCycles %d != seed formula NumSC*RasterCycles-SCBusyCycles = %d",
				sr.name, m.Events.SCIdleCycles, seedIdle)
		}
		var idle, busy int64
		for _, b := range m.SCBreakdown {
			idle += b.Idle()
			busy += b.Busy
		}
		if uint64(idle) != m.Events.SCIdleCycles {
			t.Errorf("%s: breakdown idle sum %d != SCIdleCycles %d", sr.name, idle, m.Events.SCIdleCycles)
		}
		if uint64(busy) != m.Events.SCBusyCycles {
			t.Errorf("%s: breakdown busy sum %d != SCBusyCycles %d", sr.name, busy, m.Events.SCBusyCycles)
		}
	}
}

// TestStallsExperimentSumsTo100 checks the -exp stalls table itself: the
// five cause shares of each policy row must sum to ~100% per benchmark
// column (the conservation law, surfaced at the reporting layer).
func TestStallsExperimentSumsTo100(t *testing.T) {
	opt := ScaledOptions(8)
	opt.Benchmarks = []string{"SWa", "CRa"}
	r := NewRunner(opt)
	tab, err := r.Table("stalls")
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 2 * len(stallCauses)
	if len(tab.Rows) != wantRows {
		t.Fatalf("stalls table has %d rows, want %d", len(tab.Rows), wantRows)
	}
	// Rows are grouped per policy: sum each cause share column-wise
	// within a policy block.
	for blk := 0; blk < len(tab.Rows); blk += len(stallCauses) {
		for col := range tab.Cols {
			var sum float64
			for c := 0; c < len(stallCauses); c++ {
				sum += tab.Rows[blk+c].Values[col]
			}
			if sum < 99.9 || sum > 100.1 {
				t.Errorf("policy block %d, column %s: cause shares sum to %.3f%%, want 100%%",
					blk/len(stallCauses), tab.Cols[col], sum)
			}
		}
	}
}

// TestStallsShapeMatchesPaper locks the qualitative §III-E story the
// stalls experiment exists to show: decoupling eliminates barrier waits
// entirely and converts part of them into useful work — DTexL's busy
// share must exceed the coupled baseline's on average.
func TestStallsShapeMatchesPaper(t *testing.T) {
	opt := ScaledOptions(8)
	r := NewRunner(opt)
	tab, err := r.Table("stalls")
	if err != nil {
		t.Fatal(err)
	}
	avg := len(tab.Cols) - 1 // the appended Avg column
	get := func(row string) float64 {
		for _, rr := range tab.Rows {
			if rr.Name == row {
				return rr.Values[avg]
			}
		}
		t.Fatalf("stalls table has no row %q", row)
		return 0
	}
	if bw := get("DTexL(HLB-flp2) barrier-wait"); bw != 0 {
		t.Errorf("DTexL(HLB-flp2) average barrier-wait share is %.3f%%, want exactly 0", bw)
	}
	if get("baseline barrier-wait") <= 0 {
		t.Error("coupled baseline shows no barrier-wait share; the experiment is vacuous")
	}
	if d, b := get("DTexL(HLB-flp2) busy"), get("baseline busy"); d <= b {
		t.Errorf("DTexL busy share %.2f%% not above baseline %.2f%%", d, b)
	}
}
