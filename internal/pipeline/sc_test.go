package pipeline

import (
	"testing"

	"dtexl/internal/cache"
)

// buildTileWork constructs a synthetic tile with n identical quads for
// SC 0: `instr` ALU instructions, one sample touching one line each, all
// lines distinct (pure miss stream, consecutive line numbers in
// consecutive L1 sets) or all the same (hit stream).
func buildTileWork(n int, instr int16, distinctLines bool) *tileWork {
	tw := &tileWork{perSC: make([][]int32, 1)}
	cov := &tw.ownCov
	tw.cov = cov
	for i := 0; i < n; i++ {
		line := uint32(0x100000 / 64)
		if distinctLines {
			line += uint32(i)
		}
		off := int32(len(cov.lines))
		cov.lines = append(cov.lines, line)
		cov.spans = append(cov.spans, span{off: off, n: 1})
		tw.perSC[0] = append(tw.perSC[0], int32(len(cov.quads)))
		cq := coverQuad{samples: 1, instr: instr, firstSpan: int32(len(cov.spans) - 1)}
		cq.setSegs()
		cov.quads = append(cov.quads, cq)
	}
	return tw
}

// runSC drains one SC over the given tile and returns its finish time.
func runSC(t *testing.T, cfg Config, tw *tileWork) (finish int64, es *engineState) {
	t.Helper()
	cfg.NumSC = 1
	cfg.Hierarchy.NumSC = 1
	es = &engineState{cfg: cfg, hier: cache.NewHierarchy(cfg.Hierarchy)}
	sc := &scState{id: 0}
	sc.setInput(tw, 0)
	for sc.pending() {
		if !sc.step(es) {
			t.Fatal("SC blocked with pending work")
		}
	}
	return sc.clock, es
}

func scTestConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSC = 1
	cfg.Hierarchy.NumSC = 1
	return cfg
}

func TestSingleWarpTiming(t *testing.T) {
	// One quad, 10 instructions, 1 sample hitting nothing (cold miss to
	// DRAM): time = instructions + sample overhead + L1 + L2 + DRAM.
	cfg := scTestConfig()
	cfg.WarpSlots = 1
	tw := buildTileWork(1, 10, true)
	finish, _ := runSC(t, cfg, tw)
	// 10 ALU + the cold miss fill (1 L1 + 12 L2 + 100 DRAM = 113); the
	// texture unit's fixed overhead pipelines under the fill.
	want := int64(10) + 113
	if finish != want {
		t.Errorf("single-warp finish = %d, want %d", finish, want)
	}
}

func TestMultithreadingHidesLatency(t *testing.T) {
	// With warp slots, other warps' compute overlaps a warp's memory
	// stall: 8 warps must finish much faster than 8 x single-warp time.
	cfg := scTestConfig()
	n := 32
	cfg.WarpSlots = 1
	serial, _ := runSC(t, cfg, buildTileWork(n, 20, true))
	cfg.WarpSlots = 8
	overlapped, _ := runSC(t, cfg, buildTileWork(n, 20, true))
	if overlapped >= serial {
		t.Errorf("8 warps (%d cycles) not faster than 1 warp (%d)", overlapped, serial)
	}
	// All ALU work still executes: lower bound is pure compute time.
	if overlapped < int64(n*20) {
		t.Errorf("finish %d below ALU lower bound %d", overlapped, n*20)
	}
}

func TestHitStreamIsComputeBound(t *testing.T) {
	// All quads touching one line: first access misses, the rest hit, so
	// with a few warps the SC is compute-bound: time ~ total ALU + small.
	cfg := scTestConfig()
	cfg.WarpSlots = 8
	n := 64
	finish, es := runSC(t, cfg, buildTileWork(n, 20, false))
	alu := int64(n * 20)
	if finish < alu {
		t.Fatalf("finish %d below ALU time %d", finish, alu)
	}
	if finish > alu+300 {
		t.Errorf("hit stream finish %d far above compute bound %d", finish, alu)
	}
	if es.events.ALUInstructions != uint64(alu) {
		t.Errorf("ALU count = %d, want %d", es.events.ALUInstructions, alu)
	}
}

func TestFillPortSerializesMissStream(t *testing.T) {
	// A pure miss stream (distinct lines, L2 hits after the first) must
	// be bounded below by misses x L2 latency with one fill port, however
	// many warps are resident.
	cfg := scTestConfig()
	cfg.WarpSlots = 16
	cfg.L1FillPorts = 1
	n := 64
	// Short shaders so compute cannot dominate: 4 cycles each.
	finish, _ := runSC(t, cfg, buildTileWork(n, 4, true))
	// Lines land in distinct sets of a cold L1, so all n accesses miss to
	// L2/DRAM; with one fill port they serialize at >= 13 cycles each.
	minBound := int64(n) * 13
	if finish < minBound {
		t.Errorf("miss stream finish %d below fill-port bound %d", finish, minBound)
	}
	// Two fill ports must relieve the bound.
	cfg.L1FillPorts = 2
	finish2, _ := runSC(t, cfg, buildTileWork(n, 4, true))
	if finish2 >= finish {
		t.Errorf("2 fill ports (%d) not faster than 1 (%d)", finish2, finish)
	}
}

func TestWarpSlotsBoundResidency(t *testing.T) {
	// The engine must never hold more warps than slots.
	cfg := scTestConfig()
	cfg.WarpSlots = 3
	es := &engineState{cfg: cfg, hier: cache.NewHierarchy(cfg.Hierarchy)}
	sc := &scState{id: 0}
	tw := buildTileWork(32, 10, true)
	sc.setInput(tw, 0)
	for sc.pending() {
		if len(sc.warps) > 3 {
			t.Fatalf("%d warps resident with 3 slots", len(sc.warps))
		}
		if !sc.step(es) {
			t.Fatal("blocked")
		}
	}
}

func TestInputGateDelaysAdmission(t *testing.T) {
	// Quads gated at cycle 1000 must not start earlier.
	cfg := scTestConfig()
	es := &engineState{cfg: cfg, hier: cache.NewHierarchy(cfg.Hierarchy)}
	sc := &scState{id: 0}
	tw := buildTileWork(1, 10, true)
	sc.setInput(tw, 1000)
	for sc.pending() {
		if !sc.step(es) {
			t.Fatal("blocked")
		}
	}
	if sc.lastRetire < 1000+10 {
		t.Errorf("quad retired at %d despite gate 1000", sc.lastRetire)
	}
	if sc.busy != 10 {
		t.Errorf("busy = %d, want 10", sc.busy)
	}
}

func TestBlockedWithoutInput(t *testing.T) {
	cfg := scTestConfig()
	es := &engineState{cfg: cfg, hier: cache.NewHierarchy(cfg.Hierarchy)}
	sc := &scState{id: 0}
	if sc.step(es) {
		t.Error("idle SC reported progress")
	}
	if sc.pending() {
		t.Error("idle SC reports pending work")
	}
}

func TestPrefetchFillsRecordedAtAdmission(t *testing.T) {
	// With prefetching, a single warp's sample must not wait the full
	// miss latency at the sample point: the fill started at admission and
	// overlapped the leading compute segment.
	cfg := scTestConfig()
	cfg.WarpSlots = 1
	cfg.TexturePrefetch = true
	tw := buildTileWork(1, 40, true) // long leading segment
	finish, es := runSC(t, cfg, tw)
	// Demand fetching: 40 + 113 = 153. Prefetch: the fill (113, started
	// at admission) overlaps the first segment (20), so the sample waits
	// only the remainder: finish = max(40, 113) + trailing segment 20 =
	// 133.
	if finish >= 153 {
		t.Errorf("prefetch did not overlap compute: finish = %d", finish)
	}
	if es.events.TextureSamples != 1 || es.events.L1TexAccesses != 1 {
		t.Errorf("prefetch miscounted events: %+v", es.events)
	}
}

func TestPrefetchEventParity(t *testing.T) {
	// Prefetching must count exactly the same events as demand fetching.
	cfg := scTestConfig()
	cfg.WarpSlots = 4
	fin1, es1 := runSC(t, cfg, buildTileWork(16, 12, true))
	cfg.TexturePrefetch = true
	fin2, es2 := runSC(t, cfg, buildTileWork(16, 12, true))
	if es1.events.L1TexAccesses != es2.events.L1TexAccesses ||
		es1.events.TextureSamples != es2.events.TextureSamples ||
		es1.events.ALUInstructions != es2.events.ALUInstructions {
		t.Errorf("event mismatch: %+v vs %+v", es1.events, es2.events)
	}
	if fin2 > fin1 {
		t.Errorf("prefetch slower on a clean stream: %d vs %d", fin2, fin1)
	}
}
