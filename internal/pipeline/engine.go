package pipeline

import (
	"context"
	"fmt"
	"math"

	"dtexl/internal/cache"
	"dtexl/internal/stats"
	"dtexl/internal/tileorder"
	"dtexl/internal/trace"
)

// Run simulates one frame of scene under cfg and returns its metrics.
func Run(scene *trace.Scene, cfg Config) (*Metrics, error) {
	return RunContext(context.Background(), scene, cfg)
}

// RunContext is Run under a context: cancellation or deadline expiry
// aborts the simulation at the next watchdog poll and returns ctx's
// error.
func RunContext(ctx context.Context, scene *trace.Scene, cfg Config) (*Metrics, error) {
	ms, err := RunFramesContext(ctx, []*trace.Scene{scene}, cfg)
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

// RunFrames simulates a sequence of frames (an animation) against a
// single memory hierarchy, so the caches stay warm across frames exactly
// as on hardware: the shared L2 retains the texture working set that
// consecutive frames re-reference. Returns one Metrics per frame, with
// per-frame (not cumulative) traffic counts.
func RunFrames(scenes []*trace.Scene, cfg Config) ([]*Metrics, error) {
	return RunFramesContext(context.Background(), scenes, cfg)
}

// RunFramesContext is RunFrames under a context, checked between frames
// and inside the executors' watchdog polls.
func RunFramesContext(ctx context.Context, scenes []*trace.Scene, cfg Config) ([]*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(scenes) == 0 {
		return nil, fmt.Errorf("pipeline: no frames to simulate")
	}
	hier := cache.NewHierarchy(cfg.Hierarchy)
	out := make([]*Metrics, 0, len(scenes))
	var prevL1, prevL2 cache.Stats
	var prevDRAM uint64
	for i, scene := range scenes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := runFrame(ctx, scene, cfg, hier)
		if err != nil {
			return nil, fmt.Errorf("pipeline: frame %d: %w", i, err)
		}
		// Convert cumulative hierarchy counters to per-frame deltas.
		l1, l2 := m.L1Tex, m.L2
		m.L1Tex = statsDelta(l1, prevL1)
		m.L2 = statsDelta(l2, prevL2)
		m.Events.L2Accesses = m.L2.Accesses
		dram := m.Events.DRAMAccesses
		m.Events.DRAMAccesses = dram - prevDRAM
		prevL1, prevL2, prevDRAM = l1, l2, dram
		out = append(out, m)
	}
	return out, nil
}

func statsDelta(cur, prev cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:  cur.Accesses - prev.Accesses,
		Hits:      cur.Hits - prev.Hits,
		Misses:    cur.Misses - prev.Misses,
		Evictions: cur.Evictions - prev.Evictions,
	}
}

// runFrame simulates one frame against an existing hierarchy. Cache
// counters in the result are cumulative over the hierarchy's lifetime;
// RunFrames converts them to per-frame deltas.
func runFrame(ctx context.Context, scene *trace.Scene, cfg Config, hier *cache.Hierarchy) (*Metrics, error) {
	if scene.Width != cfg.Width || scene.Height != cfg.Height {
		return nil, fmt.Errorf("pipeline: scene is %dx%d but config is %dx%d",
			scene.Width, scene.Height, cfg.Width, cfg.Height)
	}

	// Phase 1: Geometry Pipeline + Tiling Engine (whole frame, §II-A).
	geo := RunGeometry(scene, hier, cfg)
	binning := BinPrimitives(geo.Primitives, hier, cfg)

	return rasterFrame(ctx, cfg, hier, geo, binning, nil)
}

// rasterFrame simulates Phase 2 — the Raster Pipeline over the tile
// sequence — against a hierarchy already holding the post-geometry
// state, and assembles the frame's metrics. covers, when non-nil, is the
// precomputed policy-independent tile coverage of a PreparedFrame.
// A stalled or canceled run returns the executor's error with no
// metrics.
func rasterFrame(ctx context.Context, cfg Config, hier *cache.Hierarchy, geo GeometryResult, binning *Binning, covers []*tileCover) (*Metrics, error) {
	ex := newExecutor(cfg, hier, geo.Primitives, binning)
	ex.raster.cov.pre = covers
	ex.wd = newWatchdog(ctx, cfg)
	ex.es.runAhead = runsAhead(ctx, cfg)
	if cfg.SampleEvery > 0 {
		ex.es.sampler = newIntervalSampler(cfg.SampleEvery, ex.scs, hier)
	}
	var err error
	if cfg.Decoupled {
		err = ex.runDecoupled()
	} else {
		err = ex.runCoupled()
	}
	if err != nil {
		return nil, err
	}

	m := &Metrics{
		Config:            cfg,
		GeometryCycles:    geo.Cycles + binning.Cycles,
		RasterCycles:      ex.frameEnd,
		PerSCQuads:        make([]uint64, cfg.NumSC),
		PerSCBusy:         make([]int64, cfg.NumSC),
		TileTimeDeviation: ex.tileTimeDev,
		TileQuadDeviation: ex.tileQuadDev,
		Timeline:          ex.timeline,
		SCBreakdown:       scBreakdowns(ex.scs, ex.frameEnd),
	}
	m.Intervals, m.IntervalsDropped = ex.es.sampler.drain()
	m.Cycles = m.GeometryCycles + m.RasterCycles
	m.FPS = cfg.ClockHz / float64(m.Cycles)

	ev := &ex.es.events
	ev.VertexFetches = geo.VertexFetches
	ev.L2Accesses = hier.L2.Stats().Accesses
	ev.DRAMAccesses = hier.DRAM.Stats().Accesses
	ev.FrameCycles = uint64(m.Cycles)
	var busy int64
	for i, sc := range ex.scs {
		m.PerSCQuads[i] = sc.quadsRetired
		m.PerSCBusy[i] = sc.busy
		busy += sc.busy
	}
	ev.SCBusyCycles = uint64(busy)
	idle := int64(cfg.NumSC)*ex.frameEnd - busy
	if idle < 0 {
		idle = 0
	}
	ev.SCIdleCycles = uint64(idle)
	m.Events = *ev
	m.L1Tex = hier.L1TexStats()
	m.L2 = hier.L2.Stats()
	return m, nil
}

// executor drives the Raster Pipeline's back end: the shader cores and
// the blend/flush bookkeeping, under either barrier discipline.
type executor struct {
	cfg      Config
	hier     *cache.Hierarchy
	raster   *rasterizer
	seq      []tileorder.Point
	scs      []*scState
	es       *engineState
	tilesX   int
	frameEnd int64

	tileTimeDev []float64
	tileQuadDev []float64
	timeline    []TileTiming

	// wd guards the drive loops; curSeq/curTX/curTY locate the in-flight
	// tile for stall dumps.
	wd                   watchdog
	curSeq, curTX, curTY int

	// pool recycles tileWork units (with their perSC and ownCov backing
	// arrays) across tiles; perSCCapV caches the presize for their perSC
	// lists (-1 until computed).
	pool      []*tileWork
	perSCCapV int

	// coupled-mode per-frame scratch (see beginCoupled).
	gates                              []int64
	cBefore                            []uint64
	cTimes, cQuads                     []float64
	cTW                                *tileWork
	cRasterPrev, cGatePrev, cFlushPrev int64

	// decoupled-mode bookkeeping
	tiles         []*tileWork
	rasterDone    []int64
	tileRemaining []int
	tileFinish    []int64
	lo, hi        int
	lastRasterEnd int64
	// Per-SC decoupled stream state (see runDecoupled). dFail[i] is the
	// window generation at which SC i's advance last came up empty;
	// neverFailed otherwise.
	dTile  []int   // current tile index per SC
	dFlush []int64 // completion of the SC's last bank flush
	dFail  []uint64
	// windowGen counts decoupled window movements (lo or hi); the drive
	// loop uses it to re-try parked SCs only when the window changed.
	windowGen uint64
}

func newExecutor(cfg Config, hier *cache.Hierarchy, prims []Primitive, b *Binning) *executor {
	ex := &executor{
		cfg:       cfg,
		hier:      hier,
		raster:    newRasterizer(cfg, prims, b, hier),
		seq:       TileSequence(cfg),
		tilesX:    cfg.TilesX(),
		perSCCapV: -1,
	}
	ex.scs = make([]*scState, cfg.NumSC)
	for i := range ex.scs {
		ex.scs[i] = &scState{
			id:       i,
			warps:    make([]warpState, 0, cfg.WarpSlots),
			ready:    make([]int64, 0, cfg.WarpSlots),
			fillFree: make([]int64, cfg.L1FillPorts),
		}
	}
	ex.es = &engineState{cfg: cfg, hier: hier}
	return ex
}

// perSCCap is the presize for pooled perSC quad lists: with prepared
// covers the per-tile maximum is known up front, making steady-state
// rasterization allocation-free.
func (ex *executor) perSCCap() int {
	if ex.perSCCapV >= 0 {
		return ex.perSCCapV
	}
	m := 0
	for _, c := range ex.raster.cov.pre {
		if c != nil && len(c.quads) > m {
			m = len(c.quads)
		}
	}
	ex.perSCCapV = m
	return m
}

// acquireTile returns a tileWork from the pool, or a fresh one with
// presized perSC lists.
func (ex *executor) acquireTile() *tileWork {
	if n := len(ex.pool); n > 0 {
		tw := ex.pool[n-1]
		ex.pool = ex.pool[:n-1]
		return tw
	}
	tw := &tileWork{perSC: make([][]int32, ex.cfg.NumSC)}
	if c := ex.perSCCap(); c > 0 {
		for i := range tw.perSC {
			tw.perSC[i] = make([]int32, 0, c)
		}
	}
	return tw
}

// releaseTile drops one reference and recycles the work unit when no
// holder remains (decoupled window slot and SC input streams each hold
// one).
func (ex *executor) releaseTile(tw *tileWork) {
	if tw == nil {
		return
	}
	if tw.refs--; tw.refs <= 0 {
		ex.pool = append(ex.pool, tw)
	}
}

// tileFlushLines is the number of color-buffer cache lines per tile.
func (ex *executor) tileFlushLines() int {
	return ex.cfg.TileSize * ex.cfg.TileSize * 4 / 64
}

// flush writes `lines` color-buffer lines of tile tw starting at cycle
// `at`, returning the completion time. Flushes are posted writes: the
// write buffer drains one line per cycle, so the latency is the line
// count, while the traffic still flows through the tile cache toward L2
// and DRAM (Fig. 5) for the traffic and energy accounting.
func (ex *executor) flush(tw *tileWork, bank int, lines int, at int64) int64 {
	tileIdx := tw.ty*ex.tilesX + tw.tx
	tileBytes := ex.cfg.TileSize * ex.cfg.TileSize * 4
	base := uint64(framebufferBase) + uint64(tileIdx*tileBytes) + uint64(bank*lines*64)
	for i := 0; i < lines; i++ {
		ex.hier.TileAccess(base + uint64(i*64))
	}
	ex.es.events.FlushedLines += uint64(lines)
	return at + int64(lines)
}

// ---------------------------------------------------------------------
// Coupled (baseline) execution: Fig. 4.
// ---------------------------------------------------------------------

func (ex *executor) runCoupled() error {
	ex.beginCoupled()
	for i := range ex.seq {
		if err := ex.coupledTile(i); err != nil {
			return err
		}
	}
	return nil
}

// beginCoupled allocates the coupled loop's per-frame scratch once, so
// the per-tile path (coupledTile) is allocation-free in steady state.
func (ex *executor) beginCoupled() {
	n := len(ex.seq)
	ex.gates = make([]int64, n+1) // gate[i] = when tile i's fragment work may start
	nsc := len(ex.scs)
	ex.cBefore = make([]uint64, nsc)
	ex.cTimes = make([]float64, nsc)
	ex.cQuads = make([]float64, nsc)
	if ex.cfg.NumSC > 1 {
		ex.tileTimeDev = make([]float64, 0, n)
		ex.tileQuadDev = make([]float64, 0, n)
	}
	if ex.cfg.CollectTimeline {
		ex.timeline = make([]TileTiming, 0, n)
	}
	// One work unit, reused: each tile fully drains before the next.
	ex.cTW = ex.acquireTile()
	ex.cRasterPrev, ex.cGatePrev, ex.cFlushPrev = 0, 0, 0
}

// coupledTile rasterizes and drains the i-th tile of the walk under the
// per-tile barrier discipline (Fig. 4).
func (ex *executor) coupledTile(i int) error {
	pt := ex.seq[i]
	ex.curSeq, ex.curTX, ex.curTY = i, pt.X, pt.Y
	tw := ex.cTW
	ex.raster.rasterizeTile(tw, i, pt)
	ex.es.events.QuadsShaded += uint64(len(tw.cov.quads))
	ex.es.events.QuadsCulled += tw.cov.culled
	ex.es.events.FragmentsShaded += tw.cov.fragments

	// The rasterizer runs ahead of the fragment stage, bounded by the
	// quad FIFO (FIFODepth tiles).
	rasterStart := ex.cRasterPrev
	if i >= ex.cfg.FIFODepth && ex.gates[i-ex.cfg.FIFODepth] > rasterStart {
		rasterStart = ex.gates[i-ex.cfg.FIFODepth]
	}
	rasterDone := rasterStart + tw.rasterCycles
	ex.cRasterPrev = rasterDone

	// barGate is the barrier-release point: the slowest core of the
	// previous tile plus the fixed crossing cost. The gate additionally
	// waits for the rasterizer when it runs behind.
	gate := ex.cGatePrev
	if i > 0 {
		gate += ex.cfg.TileBarrierCycles
	}
	barGate := gate
	if rasterDone > gate {
		gate = rasterDone
	}
	ex.gates[i] = gate

	// Barrier: all SCs align to the gate, then drain this tile. The
	// alignment is attributed per SC: cycles up to barGate are
	// BarrierWait (waiting for slower cores and the crossing cost; for
	// tile 0 barGate is 0, so the pipeline-fill wait is all supply);
	// any excess up to the gate is the rasterizer running behind —
	// QueueEmpty.
	before := ex.cBefore
	for si, sc := range ex.scs {
		if sc.clock < gate {
			bw := barGate - sc.clock
			if bw < 0 {
				bw = 0
			}
			sc.barrierWait += bw
			sc.queueEmpty += gate - sc.clock - bw
			sc.clock = gate
		}
		sc.setInput(tw, gate)
		before[si] = sc.quadsRetired
	}
	if err := ex.drainAll(); err != nil {
		return err
	}

	// Per-tile imbalance metrics (Figs. 12, 14, 15).
	times := ex.cTimes
	quads := ex.cQuads
	var maxFinish int64 = gate
	for si, sc := range ex.scs {
		times[si] = 0
		if sc.quadsRetired > before[si] {
			times[si] = float64(sc.lastRetire - gate)
			if sc.lastRetire > maxFinish {
				maxFinish = sc.lastRetire
			}
		}
		quads[si] = float64(len(tw.perSC[si]))
	}
	if ex.cfg.NumSC > 1 {
		ex.tileTimeDev = append(ex.tileTimeDev, stats.MeanDeviation(times))
		ex.tileQuadDev = append(ex.tileQuadDev, stats.MeanDeviation(quads))
	}
	if ex.cfg.CollectTimeline {
		tt := TileTiming{Seq: i, TX: pt.X, TY: pt.Y, Gate: gate, Finish: make([]int64, len(ex.scs))}
		for si, sc := range ex.scs {
			if sc.quadsRetired > before[si] {
				tt.Finish[si] = sc.lastRetire
			} else {
				tt.Finish[si] = gate
			}
		}
		ex.timeline = append(ex.timeline, tt)
	}

	// Whole-tile color flush. The single Color Buffer serializes the
	// flush chain: tile t+1's flush cannot begin before tile t's
	// completes (§III-E change #1 makes this per-bank instead). The
	// fragment stage of the next tile is gated only by its own
	// barrier; the quad FIFO in front of Blending absorbs the flush
	// window.
	flushStart := maxFinish
	if ex.cFlushPrev > flushStart {
		flushStart = ex.cFlushPrev
	}
	ex.cFlushPrev = ex.flush(tw, 0, ex.tileFlushLines(), flushStart)
	ex.cGatePrev = maxFinish
	if ex.cFlushPrev > ex.frameEnd {
		ex.frameEnd = ex.cFlushPrev
	}
	return nil
}

// drainAll advances SCs until none has pending work (see drainSCs). A
// blocked core or watchdog-detected livelock returns a *StallError —
// formerly a process-killing panic — and a canceled context returns its
// error.
func (ex *executor) drainAll() error {
	for ex.wd.chaos {
		if ex.wd.chaosTick() {
			return ex.stallErr("coupled", "injected chaos stall")
		}
	}
	reason, err := drainSCs(&ex.wd, ex.es, ex.scs)
	if err != nil {
		return err
	}
	if reason != "" {
		return ex.stallErr("coupled", reason)
	}
	return nil
}

// drainSCs turns the stepping kernel until no SC has pending work, and
// returns the watchdog's stall reason or error if it stops early.
func drainSCs(wd *watchdog, es *engineState, scs []*scState) (reason string, err error) {
	for {
		stepped, reason, err := turn(wd, es, scs)
		if !stepped || reason != "" || err != nil {
			return reason, err
		}
	}
}

// turn is the stepping kernel of every drive loop. It steps the front
// SC, the pending SC with the smallest key, and reports false when no
// SC is pending. Steps run in global (clock, SC index) order only where
// they touch state outside their SC, so that L2 interleaving follows
// simulated time (DESIGN.md §3).
//
// Without run-ahead the front SC steps while its key stays below the
// runner-up's, which is exactly the rescan-per-step order. With
// run-ahead it keeps stepping past the runner-up while its steps touch
// only its own state. A step past the runner-up that needs shared
// state holds that part (engineState.holds) and ends the turn; the SC's
// key stays the step's start key, and a later turn that finds it the
// global minimum completes the step. Either way a turn also ends when
// the SC runs out of work, because only then can a retire have moved
// the decoupled window, and the drive loop feeds SCs before the next
// turn.
func turn(wd *watchdog, es *engineState, scs []*scState) (stepped bool, reason string, err error) {
	first, second := nextSC(scs)
	if first == noSC {
		return false, "", nil
	}
	sc := scs[first&scKeyMask]
	stop := second
	if es.runAhead {
		es.limit, stop = second, noSC
	}
	for {
		if reason, err = wd.step(es, sc); reason != "" || err != nil {
			return true, reason, err
		}
		if !sc.pending() || sc.held || sc.key() > stop {
			return true, "", nil
		}
	}
}

// stepwiseKey flags a context whose simulations keep the kernel's
// batches without run-ahead: the reference the run-ahead engine must
// match.
type stepwiseKey struct{}

// runsAhead reports whether the kernel may run SCs ahead under cfg and
// ctx: not under NUCA, where every L1 probe reaches a shared bank, and
// not with TexturePrefetch, which fills at admission. Interval sampling
// runs ahead: a boundary crossing records only its own SC's state and
// own L1, and a sample's L2 delta is taken around its fills, which run
// in global order.
func runsAhead(ctx context.Context, cfg Config) bool {
	return !cfg.Hierarchy.NUCA && !cfg.TexturePrefetch && ctx.Value(stepwiseKey{}) == nil
}

// scKeyBits is the index width of an SC's packed key: Validate allows
// at most sched.NumSubtiles = 4 SCs.
const (
	scKeyBits = 2
	scKeyMask = 1<<scKeyBits - 1
)

// noSC is the key of an SC without pending work, above every real key.
const noSC = math.MaxInt64

// key packs the SC's (clock, index) order into one integer,
// clock<<scKeyBits | id, so comparing keys compares clocks and breaks
// ties by the lower index.
func (sc *scState) key() int64 { return sc.clock<<scKeyBits | int64(sc.id) }

// nextSC returns the smallest key of a pending SC and the runner-up key,
// each noSC when there is no such SC. The two smallest keys are folded
// with min and max, so the scan has no data-dependent branch but the
// pending test; the SC itself is scs[first&scKeyMask].
func nextSC(scs []*scState) (first, second int64) {
	first, second = noSC, noSC
	for _, sc := range scs {
		k := int64(noSC)
		if sc.pending() {
			k = sc.key()
		}
		second = min(second, max(first, k))
		first = min(first, k)
	}
	return first, second
}

// stallErr assembles the diagnostic state dump for a stalled executor.
func (ex *executor) stallErr(mode, reason string) *StallError {
	e := &StallError{
		Mode:     mode,
		Reason:   reason,
		Cycle:    maxClock(ex.scs),
		Steps:    ex.wd.noProgress,
		TileSeq:  ex.curSeq,
		TileX:    ex.curTX,
		TileY:    ex.curTY,
		WindowLo: ex.lo,
		WindowHi: ex.hi,
		SCs:      scStallStates(ex.scs),
	}
	if mode == "decoupled" && ex.lo < len(ex.seq) {
		// The oldest unretired tile is the window's lo edge.
		e.TileSeq = ex.lo
		e.TileX, e.TileY = ex.seq[ex.lo].X, ex.seq[ex.lo].Y
	}
	return e
}

// ---------------------------------------------------------------------
// Decoupled (DTexL) execution: Fig. 10.
// ---------------------------------------------------------------------

func (ex *executor) runDecoupled() error {
	n := len(ex.seq)
	ex.tiles = make([]*tileWork, n)
	ex.rasterDone = make([]int64, n)
	ex.tileRemaining = make([]int, n)
	ex.tileFinish = make([]int64, n)

	// Per-SC stream state. dFail[i] is the window generation at which
	// SC i's advance last came up empty; the feed loop re-tries a parked
	// SC only after the window moved, since a failed advance is a pure
	// no-op until then (the drained-subtile flush happens on the first
	// attempt, before the SC can park).
	nsc := len(ex.scs)
	ex.dTile = make([]int, nsc)
	ex.dFlush = make([]int64, nsc)
	ex.dFail = make([]uint64, nsc)
	for i := range ex.dTile {
		ex.dTile[i] = -1
		ex.dFail[i] = neverFailed
	}

	ex.es.retire = func(sc *scState, tw *tileWork, at int64) {
		ex.tileRemaining[tw.seq]--
		if ex.tileRemaining[tw.seq] == 0 {
			ex.tileFinish[tw.seq] = at
			ex.advanceLo()
		}
	}
	defer func() { ex.es.retire = nil }()

	ex.extendWindow()

	for ex.wd.chaos {
		if ex.wd.chaosTick() {
			return ex.stallErr("decoupled", "injected chaos stall")
		}
	}
	scs := ex.scs
	for {
		// Feed drained SCs (index order: advances touch the hierarchy).
		// A turn ends whenever its SC drains, so every retire that moved
		// the window is fed before the next step, as stepping one SC per
		// pass would. One pass suffices: an SC that fails its advance
		// leaves no room to extend the window at this generation, so no
		// later advance in the pass can move it.
		for _, sc := range scs {
			if !sc.pending() && ex.dFail[sc.id] != ex.windowGen {
				if ex.decAdvance(sc) {
					ex.dFail[sc.id] = neverFailed
				} else {
					ex.dFail[sc.id] = ex.windowGen
				}
			}
		}
		stepped, reason, err := turn(&ex.wd, ex.es, scs)
		if err != nil {
			return err
		}
		if reason != "" {
			return ex.stallErr("decoupled", reason)
		}
		if !stepped {
			if ex.lo >= n && ex.hi >= n {
				break
			}
			if ex.extendWindow() {
				ex.wd.noProgress = 0
				continue
			}
			if ex.lo >= n {
				break
			}
			// No SC has work and the window cannot grow: only retires can
			// unwedge this, and there are none in flight — count it toward
			// the watchdog instead of spinning forever.
			if ex.wd.idleTick() {
				return ex.stallErr("decoupled", "window stalled: rasterizer cannot advance")
			}
		}
	}

	ex.decFrameEnd()
	return nil
}

// neverFailed is the dFail sentinel for an SC whose last advance
// succeeded (or that has not yet advanced).
const neverFailed = ^uint64(0)

// decAdvance moves sc's input to its next non-empty subtile stream,
// returning false when it must wait for the window.
func (ex *executor) decAdvance(sc *scState) bool {
	if sc.inTile != nil && len(sc.inTile.perSC[sc.id]) > 0 {
		// Bank flush of the subtile just drained (16 lines, §III-E).
		ex.dFlush[sc.id] = ex.flush(sc.inTile, sc.id, ex.tileFlushLines()/len(ex.scs), sc.lastRetire)
		ex.releaseTile(sc.inTile)
		sc.inTile = nil
	}
	for {
		next := ex.dTile[sc.id] + 1
		if next >= ex.hi {
			if !ex.extendWindow() {
				return false
			}
			if next >= ex.hi {
				return false
			}
		}
		ex.dTile[sc.id] = next
		tw := ex.tiles[next]
		if tw == nil || len(tw.perSC[sc.id]) == 0 {
			continue // nothing for this SC in that tile
		}
		gate := ex.rasterDone[next]
		if ex.dFlush[sc.id] > gate {
			gate = ex.dFlush[sc.id]
		}
		tw.refs++
		sc.setInput(tw, gate)
		return true
	}
}

// decFrameEnd folds the decoupled run's completion times into frameEnd.
func (ex *executor) decFrameEnd() {
	for _, sc := range ex.scs {
		if sc.clock > ex.frameEnd {
			ex.frameEnd = sc.clock
		}
	}
	for _, f := range ex.dFlush {
		if f > ex.frameEnd {
			ex.frameEnd = f
		}
	}
	if ex.lastRasterEnd > ex.frameEnd {
		ex.frameEnd = ex.lastRasterEnd
	}
}

// extendWindow rasterizes tiles up to the FIFO bound and returns whether
// it made progress.
func (ex *executor) extendWindow() bool {
	n := len(ex.seq)
	progressed := false
	for ex.hi < n && ex.hi < ex.lo+ex.cfg.FIFODepth {
		i := ex.hi
		tw := ex.acquireTile()
		ex.raster.rasterizeTile(tw, i, ex.seq[i])
		tw.refs = 1 // the window slot's reference
		nq := len(tw.cov.quads)
		ex.es.events.QuadsShaded += uint64(nq)
		ex.es.events.QuadsCulled += tw.cov.culled
		ex.es.events.FragmentsShaded += tw.cov.fragments

		start := ex.lastRasterEnd
		if i >= ex.cfg.FIFODepth && ex.tileFinish[i-ex.cfg.FIFODepth] > start {
			start = ex.tileFinish[i-ex.cfg.FIFODepth]
		}
		ex.rasterDone[i] = start + tw.rasterCycles
		ex.lastRasterEnd = ex.rasterDone[i]

		ex.tiles[i] = tw
		ex.tileRemaining[i] = nq
		if nq == 0 {
			ex.tileFinish[i] = ex.rasterDone[i]
		}
		ex.hi++
		ex.advanceLo()
		progressed = true
	}
	if progressed {
		ex.windowGen++
	}
	return progressed
}

// advanceLo slides the window past fully retired tiles, releasing their
// work units back to the pool.
func (ex *executor) advanceLo() {
	moved := false
	for ex.lo < ex.hi && ex.tileRemaining[ex.lo] == 0 {
		ex.releaseTile(ex.tiles[ex.lo])
		ex.tiles[ex.lo] = nil
		ex.lo++
		moved = true
	}
	if moved {
		ex.windowGen++
	}
}
