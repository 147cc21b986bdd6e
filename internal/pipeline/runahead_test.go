package pipeline

import (
	"context"
	"reflect"
	"testing"

	"dtexl/internal/sched"
	"dtexl/internal/trace"
)

// simulate runs scene under cfg on the tile-based or the IMR machine.
// stepwise turns run-ahead off, so that every step runs whole in global
// (clock, SC index) order: the reference the run-ahead engine must
// match.
func simulate(scene *trace.Scene, cfg Config, imr, stepwise bool) (*Metrics, error) {
	ctx := context.Background()
	if stepwise {
		ctx = context.WithValue(ctx, stepwiseKey{}, true)
	}
	if imr {
		return RunIMRContext(ctx, scene, cfg)
	}
	return RunContext(ctx, scene, cfg)
}

// FuzzRunAheadMatchesStepwise checks that letting shader cores run
// ahead through their private steps changes no output: over random
// scenes and machines (coupled, decoupled or IMR; one or four SCs; warp
// slots, FIFO depth, warp scheduler, Late-Z, NUCA, prefetch, interval
// sampling, L1 and L2 sizes, grouping and assignment) the metrics,
// interval series included, equal the stepwise reference's, or both
// runs stall with the same dump. A small L2 makes the order of fills
// visible in hits, evictions and DRAM rows.
func FuzzRunAheadMatchesStepwise(f *testing.F) {
	// seed, mode (coupled/decoupled/IMR), one SC, warp slots, FIFO
	// depth, warp scheduler, flags (Late-Z, NUCA, prefetch, sampling),
	// L1 and L2 size steps, grouping.
	f.Add(uint64(1), uint8(0), false, uint8(8), uint8(8), uint8(0), uint8(0), uint8(4), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(1), false, uint8(8), uint8(2), uint8(0), uint8(0), uint8(4), uint8(0), uint8(6))
	f.Add(uint64(3), uint8(2), false, uint8(4), uint8(8), uint8(1), uint8(0), uint8(2), uint8(1), uint8(0))
	f.Add(uint64(4), uint8(1), false, uint8(2), uint8(1), uint8(2), uint8(1), uint8(0), uint8(0), uint8(9))
	f.Add(uint64(5), uint8(0), true, uint8(8), uint8(8), uint8(0), uint8(0), uint8(4), uint8(3), uint8(0))
	f.Add(uint64(6), uint8(1), false, uint8(8), uint8(4), uint8(0), uint8(2), uint8(3), uint8(0), uint8(6))
	f.Add(uint64(7), uint8(0), false, uint8(8), uint8(8), uint8(1), uint8(2), uint8(1), uint8(0), uint8(3))
	f.Add(uint64(8), uint8(1), false, uint8(16), uint8(3), uint8(0), uint8(4), uint8(4), uint8(0), uint8(7))
	f.Add(uint64(9), uint8(0), false, uint8(8), uint8(8), uint8(0), uint8(8), uint8(4), uint8(0), uint8(0))
	f.Add(uint64(10), uint8(1), false, uint8(3), uint8(8), uint8(2), uint8(0), uint8(1), uint8(0), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, mode uint8, oneSC bool, warpSlots, fifo, warpSched, flags, l1, l2, grouping uint8) {
		cfg := testConfig()
		cfg.Width, cfg.Height = 128, 96
		imr := mode%3 == 2
		cfg.Decoupled = mode%3 == 1
		if oneSC {
			cfg.NumSC, cfg.Hierarchy.NumSC = 1, 1
		}
		cfg.WarpSlots = 1 + int(warpSlots%16)
		cfg.FIFODepth = 1 + int(fifo%8)
		cfg.WarpSched = WarpSchedPolicy(warpSched % 3)
		cfg.LateZ = flags&1 != 0
		cfg.Hierarchy.NUCA = flags&2 != 0
		cfg.TexturePrefetch = flags&4 != 0
		if flags&8 != 0 {
			cfg.SampleEvery = 256
		}
		cfg.Hierarchy.L1Tex.SizeBytes = 1 << (10 + l1%5) // 1-16 KiB
		cfg.Hierarchy.L2.SizeBytes = 4 << (10 + l2%9)    // 4 KiB-1 MiB
		gs := sched.Groupings()
		cfg.Grouping = gs[int(grouping)%len(gs)]
		cfg.Assignment = sched.Assignments()[int(grouping)%len(sched.Assignments())]
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzzed config invalid: %v", err)
		}
		scene := randomScene(trace.NewRNG(seed), cfg.Width, cfg.Height)

		want, werr := simulate(scene, cfg, imr, true)
		got, gerr := simulate(scene, cfg, imr, false)
		if werr != nil || gerr != nil {
			if !reflect.DeepEqual(werr, gerr) {
				t.Fatalf("stepwise error %v, run-ahead error %v", werr, gerr)
			}
			return
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("run-ahead metrics differ from stepwise: cycles %d vs %d, L2 %+v vs %+v, DRAM %d vs %d",
				got.Cycles, want.Cycles, got.L2, want.L2, got.Events.DRAMAccesses, want.Events.DRAMAccesses)
		}
	})
}
