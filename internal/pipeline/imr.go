package pipeline

import (
	"context"
	"fmt"

	"dtexl/internal/cache"
	"dtexl/internal/trace"
)

// Immediate-Mode Rendering (IMR): the non-tiled architecture TBR is
// motivated against (§II, citing Antochi et al.'s ~1.96x external-traffic
// factor). IMR rasterizes primitives in submission order over the whole
// screen; the depth and color buffers live in main memory and every
// Z-test and color write is a cached memory access instead of an on-chip
// bank access. The shader-core model, texture path and memory hierarchy
// are exactly the TBR ones, so the comparison isolates the architecture.

// zBufferBase is the IMR depth buffer's address arena (4 B/pixel,
// row-linear, 16 pixels per 64 B line).
const zBufferBase = 0xe000_0000

// imrBatchPrims bounds how many primitives one IMR dispatch batch holds;
// batches bound simulator memory the way the tile window does for TBR.
const imrBatchPrims = 64

// RunIMR simulates one frame on the immediate-mode machine. The
// configuration's scheduler fields are ignored except the fine-grained
// quad-to-SC interleave (IMR has no tiles, so quads scatter across SCs by
// screen position); Decoupled/TileOrder/Assignment do not apply.
func RunIMR(scene *trace.Scene, cfg Config) (*Metrics, error) {
	return RunIMRContext(context.Background(), scene, cfg)
}

// RunIMRContext is RunIMR under a context for cancellation and
// deadlines; a stalled executor returns a *StallError instead of
// panicking, like the TBR executors.
func RunIMRContext(ctx context.Context, scene *trace.Scene, cfg Config) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if scene.Width != cfg.Width || scene.Height != cfg.Height {
		return nil, fmt.Errorf("pipeline: scene is %dx%d but config is %dx%d",
			scene.Width, scene.Height, cfg.Width, cfg.Height)
	}
	hier := cache.NewHierarchy(cfg.Hierarchy)
	geo := RunGeometry(scene, hier, cfg)

	im := &imrExecutor{
		cfg:  cfg,
		hier: hier,
		es:   &engineState{cfg: cfg, hier: hier},
		// The memory-resident depth buffer, pixel-granular like the TBR
		// Z-Buffer; its traffic flows through the cache hierarchy.
		depth: make([]float64, cfg.Width*cfg.Height),
	}
	for i := range im.depth {
		im.depth[i] = 2 // beyond the far plane
	}
	im.scs = make([]*scState, cfg.NumSC)
	for i := range im.scs {
		im.scs[i] = &scState{
			id:       i,
			warps:    make([]warpState, 0, cfg.WarpSlots),
			ready:    make([]int64, 0, cfg.WarpSlots),
			fillFree: make([]int64, cfg.L1FillPorts),
		}
	}
	im.wd = newWatchdog(ctx, cfg)
	im.es.runAhead = runsAhead(ctx, cfg)
	if cfg.SampleEvery > 0 {
		im.es.sampler = newIntervalSampler(cfg.SampleEvery, im.scs, hier)
	}
	if err := im.run(geo.Primitives); err != nil {
		return nil, err
	}

	m := &Metrics{
		Config:         cfg,
		GeometryCycles: geo.Cycles, // no Tiling Engine in IMR
		RasterCycles:   im.frameEnd,
		PerSCQuads:     make([]uint64, cfg.NumSC),
		PerSCBusy:      make([]int64, cfg.NumSC),
		SCBreakdown:    scBreakdowns(im.scs, im.frameEnd),
	}
	m.Intervals, m.IntervalsDropped = im.es.sampler.drain()
	m.Cycles = m.GeometryCycles + m.RasterCycles
	m.FPS = cfg.ClockHz / float64(m.Cycles)
	ev := &im.es.events
	ev.VertexFetches = geo.VertexFetches
	ev.L2Accesses = hier.L2.Stats().Accesses
	ev.DRAMAccesses = hier.DRAM.Stats().Accesses
	ev.FrameCycles = uint64(m.Cycles)
	var busy int64
	for i, sc := range im.scs {
		m.PerSCQuads[i] = sc.quadsRetired
		m.PerSCBusy[i] = sc.busy
		busy += sc.busy
	}
	ev.SCBusyCycles = uint64(busy)
	if idle := int64(cfg.NumSC)*im.frameEnd - busy; idle > 0 {
		ev.SCIdleCycles = uint64(idle)
	}
	m.Events = *ev
	m.L1Tex = hier.L1TexStats()
	m.L2 = hier.L2.Stats()
	return m, nil
}

type imrExecutor struct {
	cfg      Config
	hier     *cache.Hierarchy
	es       *engineState
	scs      []*scState
	depth    []float64
	frameEnd int64

	wd     watchdog
	curSeq int // in-flight primitive batch, for stall dumps
}

// stallErr assembles the IMR stall diagnostic (no tiles or window; the
// batch sequence number stands in for the in-flight tile).
func (im *imrExecutor) stallErr(reason string) *StallError {
	return &StallError{
		Mode:    "imr",
		Reason:  reason,
		Cycle:   maxClock(im.scs),
		Steps:   im.wd.noProgress,
		TileSeq: im.curSeq,
		SCs:     scStallStates(im.scs),
	}
}

// run streams primitive batches through rasterization + memory Z-test and
// feeds the shader cores without any barrier: IMR has no tiles to wait
// on. Batches exist only to bound simulator memory.
func (im *imrExecutor) run(prims []Primitive) error {
	var rasterDone int64
	seq := 0
	// One work unit, reused: each batch fully drains before the next.
	tw := &tileWork{perSC: make([][]int32, im.cfg.NumSC)}
	for start := 0; start < len(prims); start += imrBatchPrims {
		end := start + imrBatchPrims
		if end > len(prims) {
			end = len(prims)
		}
		im.curSeq = seq
		im.rasterizeBatch(tw, seq, prims[start:end])
		seq++
		rasterDone += tw.rasterCycles
		im.es.events.QuadsShaded += uint64(len(tw.cov.quads))
		im.es.events.QuadsCulled += tw.cov.culled
		im.es.events.FragmentsShaded += tw.cov.fragments

		// Feed every SC its share and drain the batch (no barrier: the
		// gate is only raster availability, and SC clocks carry over).
		for _, sc := range im.scs {
			sc.setInput(tw, rasterDone)
		}
		for im.wd.chaos {
			if im.wd.chaosTick() {
				return im.stallErr("injected chaos stall")
			}
		}
		reason, err := drainSCs(&im.wd, im.es, im.scs)
		if err != nil {
			return err
		}
		if reason != "" {
			return im.stallErr(reason)
		}
	}
	for _, sc := range im.scs {
		if sc.clock > im.frameEnd {
			im.frameEnd = sc.clock
		}
	}
	if rasterDone > im.frameEnd {
		im.frameEnd = rasterDone
	}
	return nil
}

// zLineAddr returns the depth-buffer line holding pixel (x, y).
func (im *imrExecutor) zLineAddr(x, y int) uint64 {
	return (uint64(zBufferBase) + uint64(y*im.cfg.Width+x)*4) &^ 63
}

// colorLineAddr returns the framebuffer line holding pixel (x, y).
func (im *imrExecutor) colorLineAddr(x, y int) uint64 {
	return (uint64(framebufferBase) + uint64(y*im.cfg.Width+x)*4) &^ 63
}

// rasterizeBatch rasterizes a run of primitives over the full screen,
// performing the Z read-modify-write and the color write against the
// memory-resident buffers. Their cache latencies are charged to the
// raster/ROP pipeline.
func (im *imrExecutor) rasterizeBatch(tw *tileWork, seq int, prims []Primitive) {
	cfg := &im.cfg
	tw.reset(cfg.NumSC)
	tw.seq = seq
	cov := &tw.ownCov
	cov.reset()
	tw.cov = cov
	quadsTested := 0
	for pi := range prims {
		p := &prims[pi]
		opaque := p.Alpha >= 1
		minX, minY, maxX, maxY := clampBoundsToScreen(p, cfg.Width, cfg.Height)
		if minX > maxX || minY > maxY {
			continue
		}
		for qy := minY / 2; qy <= maxY/2; qy++ {
			for qx := minX / 2; qx <= maxX/2; qx++ {
				quadsTested++
				px, py := qx*2, qy*2
				covered := false
				alive := false
				var passMask, coverMask uint8
				// A 2x2 quad touches up to four depth lines (two rows, and
				// each row may straddle a 16-pixel line boundary).
				var touched [4]uint64
				nTouched := 0
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						x := float64(px+dx) + 0.5
						y := float64(py+dy) + 0.5
						if px+dx >= cfg.Width || py+dy >= cfg.Height || !p.Setup.Inside(x, y) {
							continue
						}
						covered = true
						coverMask |= 1 << uint(dy*2+dx)
						// Memory Z-test: read the depth line once per quad.
						addr := im.zLineAddr(px+dx, py+dy)
						seen := false
						for i := 0; i < nTouched; i++ {
							if touched[i] == addr {
								seen = true
								break
							}
						}
						if !seen {
							touched[nTouched] = addr
							nTouched++
							tw.rasterCycles += im.hier.TileAccess(addr)
						}
						d := p.Setup.DepthAt(x, y)
						idx := (py+dy)*cfg.Width + px + dx
						if d < im.depth[idx] {
							if opaque {
								im.depth[idx] = d
							}
							alive = true
							passMask |= 1 << uint(dy*2+dx)
						}
					}
				}
				if !covered {
					continue
				}
				if alive && opaque {
					// Depth writeback: one access per touched line.
					for i := 0; i < nTouched; i++ {
						tw.rasterCycles += im.hier.TileAccess(touched[i])
					}
				}
				if !alive {
					if !cfg.LateZ {
						cov.culled++
						continue
					}
					alive = true
				}
				// Color write for the shaded pixels' lines (up to four).
				var colorLines [4]uint64
				nColor := 0
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if passMask&(1<<uint(dy*2+dx)) == 0 {
							continue
						}
						addr := im.colorLineAddr(px+dx, py+dy)
						seen := false
						for i := 0; i < nColor; i++ {
							if colorLines[i] == addr {
								seen = true
								break
							}
						}
						if !seen {
							colorLines[nColor] = addr
							nColor++
						}
					}
				}
				for i := 0; i < nColor; i++ {
					im.hier.TileAccess(colorLines[i])
					tw.rasterCycles++ // posted write, throughput-limited
					im.es.events.FlushedLines++
				}
				if cfg.RenderTarget != nil && passMask != 0 {
					resolveColor(cfg.RenderTarget, p, px, py, passMask)
				}
				if cfg.LateZ {
					cov.fragments += uint64(popcount4(coverMask))
				} else {
					cov.fragments += uint64(popcount4(passMask))
				}

				// Quads scatter across SCs by screen position with the
				// fine-grained interleave (no tiles, no subtile notion, so
				// no tile quad coordinates); the texture footprint is the
				// TBR path's.
				sc := (qx + 2*qy) & 3 % cfg.NumSC
				tw.perSC[sc] = append(tw.perSC[sc], int32(len(cov.quads)))
				cov.addQuad(p, 0, 0, px, py)
			}
		}
	}
	tw.rasterCycles += int64(float64(quadsTested) / cfg.RasterRate)
}

// clampBoundsToScreen clips a primitive's pixel bounds to the screen.
func clampBoundsToScreen(p *Primitive, w, h int) (minX, minY, maxX, maxY int) {
	minX, minY = int(p.Bounds.MinX), int(p.Bounds.MinY)
	maxX, maxY = int(p.Bounds.MaxX), int(p.Bounds.MaxY)
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX > w-1 {
		maxX = w - 1
	}
	if maxY > h-1 {
		maxY = h - 1
	}
	return
}
