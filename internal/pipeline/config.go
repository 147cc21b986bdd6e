// Package pipeline implements the TBR graphics pipeline of Fig. 3 — the
// Geometry Pipeline, the Tiling Engine, and the Raster Pipeline with its
// four parallel Early-Z / Fragment / Blend units — together with the
// cycle-approximate execution engine that the evaluation measures.
//
// Two barrier disciplines are implemented (§II-C vs §III-E):
//
//   - Coupled (baseline, Fig. 4): every raster stage works on a single
//     tile at a time; a shader core may not receive quads from tile t+1
//     until all shader cores have finished tile t.
//   - Decoupled (DTexL, Fig. 10): the Z/Color-buffer banks gate per
//     Subtile, so each shader core streams straight into its next subtile
//     as soon as it finishes its own, bounded only by the rasterizer FIFO.
//
// Every executor is deterministic and single-threaded: one serial drive
// loop per barrier discipline (coupled, decoupled, and the IMR
// reference) steps the shader cores through one stepping kernel, whose
// steps reach shared state in ascending (clock, SC index) order, the
// event order DTexL's cache effects depend on. Parallelism
// lives above the pipeline, across independent simulations; the
// concurrency & determinism contract is DESIGN.md §11.
package pipeline

import (
	"fmt"

	"dtexl/internal/cache"
	"dtexl/internal/render"
	"dtexl/internal/sched"
	"dtexl/internal/stats"
	"dtexl/internal/tileorder"
)

// GPU address-map bases for the frame's working structures. They share
// the address space with textures (0x1000_0000) and vertex buffers
// (0x4000_0000) allocated by the trace package.
const (
	primAttrBase    = 0x8000_0000 // parameter buffer: per-primitive attributes
	tileListBase    = 0xa000_0000 // parameter buffer: per-tile primitive ID lists
	framebufferBase = 0xc000_0000 // final color buffer in DRAM
)

// Config selects the architecture under evaluation. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Width, Height is the screen resolution in pixels (Table II:
	// 1960x768).
	Width, Height int
	// TileSize is the square tile side in pixels (Table II: 32).
	TileSize int
	// NumSC is the number of shader cores / parallel raster pipelines.
	// The paper (and DefaultConfig) uses 4; 1 with a 4x L1 gives the
	// upper-bound configuration of Fig. 16.
	NumSC int
	// WarpSlots is the number of quad-warps resident per SC; it bounds
	// how much memory latency multithreading can hide.
	WarpSlots int
	// RasterRate is the rasterizer throughput in quads per cycle.
	RasterRate float64
	// FIFODepth is how many tiles the rasterizer may run ahead of the
	// slowest consumer (the quad FIFO capacity, in tiles).
	FIFODepth int
	// SampleOverhead is the fixed texture-unit cycles added per sample on
	// top of cache latencies.
	SampleOverhead int64
	// L1FillPorts is the number of outstanding L1 texture misses an SC
	// can sustain (MSHRs). Misses beyond it queue on the fill ports.
	L1FillPorts int
	// TileBarrierCycles is the fixed cost of crossing the coupled
	// barriers between tiles: draining and refilling the raster-stage
	// FIFOs and swapping the Z/Color bank state. The decoupled
	// architecture overlaps this per parallel unit with its own stream
	// (§III-E reduces inter-tile idle time "to near zero"), so it is
	// charged only in coupled mode.
	TileBarrierCycles int64

	// Grouping maps quads to Subtiles (Fig. 6).
	Grouping sched.Grouping
	// Assignment re-maps Subtiles to SCs along the tile walk (Fig. 8).
	Assignment sched.Assignment
	// TileOrder sets the Tiling Engine's tile processing order (Fig. 7).
	TileOrder tileorder.Kind
	// Decoupled selects the DTexL barrier architecture (§III-E).
	Decoupled bool
	// LateZ disables the Early-Z stage, as required when the shader
	// writes fragment depth (§II-A): every covered quad is shaded and
	// depth is resolved at the (Late) Z test before blending. Overdraw is
	// then paid in full by the shader cores.
	LateZ bool
	// PreciseBinning makes the Polygon List Builder test exact
	// triangle/tile overlap instead of bounding boxes, shedding the
	// false-positive list entries thin diagonal triangles produce. It
	// never changes what is rendered — the rasterizer re-tests coverage —
	// only Parameter Buffer size and Tile Fetcher traffic.
	PreciseBinning bool
	// WarpSched selects the intra-SC warp scheduling policy. The paper's
	// related work (§VI) surveys many GPGPU warp schedulers; the
	// abl-warpsched experiment shows DTexL's benefit is insensitive to
	// this axis, as those works are orthogonal to quad placement.
	WarpSched WarpSchedPolicy
	// TexturePrefetch enables a decoupled access/execute texture
	// prefetcher in the style of Arnau et al. (cited in the paper's §VI
	// as orthogonal to DTexL): a quad's texture lines are fetched when
	// the warp is admitted, so the fills overlap its leading compute
	// segments instead of stalling its samples. Prefetching hides
	// latency but creates no fill bandwidth, so it cannot substitute for
	// the scheduler: a replication-heavy stream stays port-bound.
	TexturePrefetch bool

	// Hierarchy configures the memory system (Table II). Hierarchy.NumSC
	// must equal NumSC.
	Hierarchy cache.HierarchyConfig

	// CollectTimeline records per-tile, per-SC execution spans in
	// Metrics.Timeline (coupled mode only, where tiles delimit clean
	// spans) — the raw data behind the Figs. 14/15 violins, exportable
	// for visualizing barrier bubbles.
	CollectTimeline bool

	// SampleEvery, when positive, snapshots per-SC occupancy, queue
	// depth, busy-cycle deltas and L1/L2 traffic deltas into
	// Metrics.Intervals roughly every SampleEvery cycles (at the first
	// SC event on or after each boundary). 0 disables sampling entirely:
	// the executors then carry a single nil pointer check per scheduling
	// step and the simulated timing, traffic and output are untouched —
	// the steady state stays allocation-free. Sampling never perturbs
	// the simulation either way (it only reads state), so it is excluded
	// from the prepared-frame memo key like WatchdogSteps.
	SampleEvery int64

	// WatchdogSteps bounds how many scheduling steps an executor may
	// take without any SC clock advance or quad retirement before the
	// run fails with a *StallError (livelock detection). 0 selects the
	// conservative default (defaultWatchdogSteps); the threshold never
	// affects the simulated timing of a healthy run, so it is excluded
	// from the prepared-frame memo key.
	WatchdogSteps int

	// RenderTarget, when non-nil, receives the resolved frame colors.
	// Rendering is purely observational: timing, traffic and energy are
	// identical with or without it, and the image is identical under
	// every scheduler — the pipeline-correctness invariant of §III-C.
	RenderTarget *render.Framebuffer

	// ClockHz converts cycles to FPS (Table II: 600 MHz).
	ClockHz float64
}

// DefaultConfig returns the paper's baseline architecture at the Table II
// operating point: FG-xshift2 grouping, Z-order tiles, constant subtile
// assignment, coupled barriers.
func DefaultConfig() Config {
	return Config{
		Width: 1960, Height: 768,
		TileSize:          32,
		NumSC:             4,
		WarpSlots:         8,
		RasterRate:        2,
		FIFODepth:         8,
		SampleOverhead:    2,
		L1FillPorts:       1,
		TileBarrierCycles: 96,
		Grouping:          sched.FGXShift2,
		Assignment:        sched.ConstAssign,
		TileOrder:         tileorder.ZOrder,
		Decoupled:         false,
		Hierarchy:         cache.DefaultHierarchyConfig(),
		ClockHz:           600e6,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("pipeline: invalid resolution %dx%d", c.Width, c.Height)
	case c.TileSize <= 0 || c.TileSize%8 != 0:
		// The tile side in quads (TileSize/2) must divide into four equal
		// strips/quadrants for every Fig. 6 grouping.
		return fmt.Errorf("pipeline: tile size %d must be a positive multiple of 8", c.TileSize)
	case c.NumSC != 1 && c.NumSC != sched.NumSubtiles:
		return fmt.Errorf("pipeline: NumSC must be %d (or 1 for the upper bound), got %d", sched.NumSubtiles, c.NumSC)
	case c.NumSC != c.Hierarchy.NumSC:
		return fmt.Errorf("pipeline: NumSC (%d) != Hierarchy.NumSC (%d)", c.NumSC, c.Hierarchy.NumSC)
	case c.Hierarchy.L1Tex.LineBytes != cache.TextureLineBytes || c.Hierarchy.L2.LineBytes != cache.TextureLineBytes:
		return fmt.Errorf("pipeline: L1 texture and L2 lines must be %d bytes (the texture layout's), got %d and %d",
			cache.TextureLineBytes, c.Hierarchy.L1Tex.LineBytes, c.Hierarchy.L2.LineBytes)
	case c.WarpSlots <= 0:
		return fmt.Errorf("pipeline: WarpSlots must be positive")
	case c.RasterRate <= 0:
		return fmt.Errorf("pipeline: RasterRate must be positive")
	case c.FIFODepth <= 0:
		return fmt.Errorf("pipeline: FIFODepth must be positive")
	case c.L1FillPorts <= 0:
		return fmt.Errorf("pipeline: L1FillPorts must be positive")
	case c.ClockHz <= 0:
		return fmt.Errorf("pipeline: ClockHz must be positive")
	case c.WatchdogSteps < 0:
		return fmt.Errorf("pipeline: WatchdogSteps must be non-negative")
	case c.SampleEvery < 0:
		return fmt.Errorf("pipeline: SampleEvery must be non-negative")
	// Out-of-range enum values would otherwise surface as panics deep in
	// the run (e.g. tileorder.Sequence); reject them here instead.
	case c.Grouping < sched.FGChecker || c.Grouping > sched.CGTri:
		return fmt.Errorf("pipeline: unknown grouping %d", int(c.Grouping))
	case c.Assignment < sched.ConstAssign || c.Assignment > sched.Flp3:
		return fmt.Errorf("pipeline: unknown subtile assignment %d", int(c.Assignment))
	case c.TileOrder < tileorder.Scanline || c.TileOrder > tileorder.HilbertRect:
		return fmt.Errorf("pipeline: unknown tile order %d", int(c.TileOrder))
	case c.WarpSched < WarpSchedEarliest || c.WarpSched > WarpSchedYoungest:
		return fmt.Errorf("pipeline: unknown warp scheduling policy %d", int(c.WarpSched))
	}
	return nil
}

// watchdogLimit resolves the livelock threshold.
func (c Config) watchdogLimit() int {
	if c.WatchdogSteps > 0 {
		return c.WatchdogSteps
	}
	return defaultWatchdogSteps
}

// TilesX returns the tile-grid width (partial edge tiles round up).
func (c Config) TilesX() int { return (c.Width + c.TileSize - 1) / c.TileSize }

// TilesY returns the tile-grid height.
func (c Config) TilesY() int { return (c.Height + c.TileSize - 1) / c.TileSize }

// QuadsPerTileSide returns the tile side measured in quads.
func (c Config) QuadsPerTileSide() int { return c.TileSize / 2 }

// WarpSchedPolicy selects which ready warp an SC issues from.
type WarpSchedPolicy int

const (
	// WarpSchedEarliest issues the warp that became ready first — the
	// default, approximating greedy-then-oldest behaviour.
	WarpSchedEarliest WarpSchedPolicy = iota
	// WarpSchedRoundRobin rotates fairly through the ready warps.
	WarpSchedRoundRobin
	// WarpSchedYoungest issues the most recently admitted ready warp
	// (LIFO), the greedy extreme.
	WarpSchedYoungest
)

var warpSchedNames = map[WarpSchedPolicy]string{
	WarpSchedEarliest:   "earliest-ready",
	WarpSchedRoundRobin: "round-robin",
	WarpSchedYoungest:   "youngest-first",
}

// String returns the policy name.
func (p WarpSchedPolicy) String() string {
	if s, ok := warpSchedNames[p]; ok {
		return s
	}
	return fmt.Sprintf("pipeline.WarpSchedPolicy(%d)", int(p))
}

// EventCounts are the activity counters the energy model integrates.
type EventCounts struct {
	ALUInstructions uint64 // shader ALU cycles issued
	TextureSamples  uint64 // texture unit sample operations
	L1TexAccesses   uint64
	L2Accesses      uint64
	DRAMAccesses    uint64
	VertexFetches   uint64
	QuadsShaded     uint64
	QuadsCulled     uint64 // rejected by Early-Z
	// FragmentsShaded counts the live lanes of the shaded quads: quads
	// on primitive edges run with helper lanes masked off.
	FragmentsShaded uint64
	FlushedLines    uint64 // color-buffer lines written to memory
	SCBusyCycles    uint64 // cycles an SC issued work, summed over SCs
	SCIdleCycles    uint64 // cycles an SC was stalled or barred, summed
	FrameCycles     uint64
}

// TileTiming is one tile's execution record under coupled barriers.
type TileTiming struct {
	Seq    int   // position in the tile walk
	TX, TY int   // tile coordinates
	Gate   int64 // cycle the barrier released the tile
	// Finish[sc] is when SC sc retired its last quad of this tile (Gate
	// if it had none); the tile completes at the max, and the gaps to it
	// are the barrier idle time.
	Finish []int64
}

// Metrics is everything one simulated frame reports.
type Metrics struct {
	Config Config

	// Cycles is the frame's total execution time.
	Cycles int64
	// FPS is ClockHz / Cycles.
	FPS float64

	// GeometryCycles and RasterCycles split the frame between the two
	// phases (TBR renders geometry for the whole frame before rastering).
	GeometryCycles int64
	RasterCycles   int64

	Events EventCounts

	// PerSCQuads counts shaded quads per SC over the frame.
	PerSCQuads []uint64
	// PerSCBusy is per-SC busy cycles.
	PerSCBusy []int64

	// TileTimeDeviation holds, per tile, the mean deviation of per-SC
	// execution time normalized to the mean (Fig. 14 violins). Only
	// meaningful for coupled runs (per-tile timing is well-defined there).
	TileTimeDeviation []float64
	// TileQuadDeviation is the same for per-SC quad counts (Fig. 15).
	TileQuadDeviation []float64
	// Timeline holds per-tile execution spans when CollectTimeline is set
	// on a coupled run.
	Timeline []TileTiming

	// SCBreakdown attributes every raster-phase cycle of each shader
	// core to one of five disjoint stall causes (see breakdown.go). For
	// every SC, SCBreakdown[i].Total() == RasterCycles exactly, and the
	// Idle() sum over SCs equals Events.SCIdleCycles bit-for-bit.
	SCBreakdown []SCBreakdown

	// Intervals is the periodic time series captured when
	// Config.SampleEvery > 0 (see interval.go); nil otherwise. The ring
	// buffer keeps the most recent maxIntervals snapshots;
	// IntervalsDropped counts older snapshots that were overwritten.
	Intervals        []Interval
	IntervalsDropped int

	// L1Tex and L2 and DRAM summarize the memory system.
	L1Tex cache.Stats
	L2    cache.Stats
}

// L2Accesses is a convenience accessor for the headline metric.
func (m *Metrics) L2Accesses() uint64 { return m.L2.Accesses }

// MeanTileTimeDeviation averages the per-tile execution-time imbalance.
func (m *Metrics) MeanTileTimeDeviation() float64 {
	return stats.Mean(m.TileTimeDeviation)
}

// MeanTileQuadDeviation averages the per-tile quad-count imbalance.
func (m *Metrics) MeanTileQuadDeviation() float64 {
	return stats.Mean(m.TileQuadDeviation)
}
