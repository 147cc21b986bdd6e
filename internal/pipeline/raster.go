package pipeline

import (
	"dtexl/internal/cache"
	"dtexl/internal/render"
	"dtexl/internal/sched"
	"dtexl/internal/texture"
	"dtexl/internal/tileorder"
)

// sampleUVStride is the texel offset between consecutive samples of the
// same quad, modeling layered materials (diffuse + detail/normal layers)
// that sample nearby but distinct texture regions.
const sampleUVStride = 8

// span is the cache-line footprint of one texture sample: n line numbers
// starting at off in its cover's lines.
type span struct {
	off int32
	n   int32
}

// tileWork is the per-policy work unit for one tile: the shared,
// read-only tile coverage plus the quad→SC partition, which is the only
// per-quad state that depends on the scheduling policy. tileWorks are
// pooled by the executor and recycled across tiles, so holders other
// than the executor itself (the decoupled window, an SC's input stream)
// must hold a reference via refs.
type tileWork struct {
	seq    int // index in the frame's tile sequence
	tx, ty int
	// cov is the policy-independent skeleton: either a shared cover from
	// a PreparedFrame, or this work unit's own ownCov scratch.
	cov *tileCover
	// perSC partitions cov.quads indices by shader core, preserving
	// rasterization order within each core's list.
	perSC [][]int32
	// rasterCycles is the front-end cost: tile fetch + rasterization +
	// Early-Z, before the quads reach the shader cores.
	rasterCycles int64
	// refs counts holders in the decoupled executor (window slot + SC
	// input streams); the work unit returns to the pool at zero. The
	// coupled executor reuses a single unit and leaves refs alone.
	refs int32
	// ownCov is the inline coverage scratch used on the live path (no
	// prepared covers); its slices are recycled with the work unit.
	ownCov tileCover
}

// reset prepares a (possibly recycled) tileWork for a new tile, keeping
// the perSC backing arrays.
func (tw *tileWork) reset(numSC int) {
	if tw.perSC == nil {
		tw.perSC = make([][]int32, numSC)
	}
	for i := range tw.perSC {
		tw.perSC[i] = tw.perSC[i][:0]
	}
	tw.cov = nil
	tw.rasterCycles = 0
	tw.refs = 0
}

// popcount4 counts the set bits of a 4-bit mask.
func popcount4(m uint8) int {
	return int(m&1 + m>>1&1 + m>>2&1 + m>>3&1)
}

// coverQuad is the policy-independent part of one surviving quad: its
// quad coordinates within the tile, shader workload and sample-footprint
// reference. It deliberately omits the shader-core assignment, which is
// the only per-quad field that depends on the scheduling policy.
// seg0/segN cache segLen for stages 0 and >0 — the shader cores would
// otherwise pay two integer divisions per executed stage.
type coverQuad struct {
	qx, qy     int16
	samples    int8
	instr      int16
	seg0, segN int16
	firstSpan  int32
}

// setSegs derives the cached compute-segment lengths from instr/samples.
func (q *coverQuad) setSegs() {
	q.seg0 = int16(segLen(q.instr, q.samples, 0))
	q.segN = int16(segLen(q.instr, q.samples, 1))
}

// tileCover is the policy-independent rasterization of one tile:
// coverage, Early-Z survival, shader workloads and texture sample
// footprints. None of it depends on Grouping, Assignment, TileOrder or
// Decoupled (§III-C: the proposal never changes which fragments are
// shaded or which texels they read, only where and when), so one
// tileCover can be shared read-only across every policy's run.
type tileCover struct {
	quads []coverQuad
	spans []span
	// lines are texture line numbers (address >> 6), the unit the cache
	// hierarchy probes.
	lines []uint32
	// culled counts quads fully rejected by Early-Z.
	culled uint64
	// fragments counts live SIMD lanes across all emitted quads.
	fragments uint64
	// quadsTested counts coverage/Early-Z tests (rasterizer throughput).
	quadsTested int
}

// sample returns the line numbers of span i.
func (c *tileCover) sample(i int32) []uint32 {
	sp := c.spans[i]
	return c.lines[sp.off : sp.off+sp.n]
}

// reset empties a cover for refilling, keeping the backing arrays.
func (c *tileCover) reset() {
	c.quads = c.quads[:0]
	c.spans = c.spans[:0]
	c.lines = c.lines[:0]
	c.culled = 0
	c.fragments = 0
	c.quadsTested = 0
}

// coverer computes tileCovers. It owns the Z-Buffer (tile-sized, reset
// per tile) and never touches the memory hierarchy — coverage is a pure
// function of (primitives, binning, tile, viewport config), which is
// what makes it precomputable.
type coverer struct {
	cfg     Config
	prims   []Primitive
	binning *Binning
	zbuf    *ZBuffer
	// pre, when non-nil, holds precomputed covers indexed ty*TilesX+tx
	// (from a PreparedFrame); cover() then skips recomputation.
	pre []*tileCover
}

func newCoverer(cfg Config, prims []Primitive, b *Binning) *coverer {
	return &coverer{
		cfg:     cfg,
		prims:   prims,
		binning: b,
		zbuf:    NewZBuffer(cfg.TileSize),
	}
}

// cover returns the tileCover for tile (tx, ty), from the precomputed set
// when one is installed; otherwise it computes into scratch (allocating
// a fresh cover when scratch is nil). Precomputed covers are only
// installed when cfg.RenderTarget is nil (the simulation paths), since
// coverTile also resolves colors into a live render target.
func (c *coverer) cover(tx, ty int, scratch *tileCover) *tileCover {
	if c.pre != nil {
		return c.pre[ty*c.cfg.TilesX()+tx]
	}
	return c.coverTile(tx, ty, scratch)
}

// rasterizer turns binned primitives into tileWork, tile by tile, in the
// configured traversal order. It layers the policy-dependent work — tile
// fetch through the memory hierarchy and subtile-to-SC assignment — on
// top of the policy-independent coverer.
type rasterizer struct {
	cfg      Config
	cov      *coverer
	hier     *cache.Hierarchy
	assigner *sched.Assigner
}

func newRasterizer(cfg Config, prims []Primitive, b *Binning, hier *cache.Hierarchy) *rasterizer {
	return &rasterizer{
		cfg:      cfg,
		cov:      newCoverer(cfg, prims, b),
		hier:     hier,
		assigner: sched.NewAssigner(cfg.Assignment, cfg.Grouping),
	}
}

// rasterizeTile fills tw with the work unit for the tile at pt (the
// seq-th tile of the walk). Must be called in tile-sequence order: the
// Subtile assigner is stateful. The hierarchy is touched only by the
// tile fetch, before any coverage work, so substituting a precomputed
// cover leaves the access stream bit-identical. Only the quad→SC
// partition is computed per policy; the skeleton (coverage, footprints,
// raster cycle counts) comes from the shared cover.
func (r *rasterizer) rasterizeTile(tw *tileWork, seq int, pt tileorder.Point) {
	cfg := &r.cfg
	tw.reset(cfg.NumSC)
	tw.seq, tw.tx, tw.ty = seq, pt.X, pt.Y
	perm := r.assigner.Next(pt)
	qside := cfg.QuadsPerTileSide()

	// The Tile Fetcher reads this tile's primitive list and attributes.
	tw.rasterCycles += r.cov.binning.FetchTileCost(pt.X, pt.Y, r.cov.prims, r.hier)

	// Policy-independent coverage, then the per-policy SC assignment.
	cov := r.cov.cover(pt.X, pt.Y, &tw.ownCov)
	tw.cov = cov
	for i := range cov.quads {
		cq := &cov.quads[i]
		sc := perm[cfg.Grouping.SubtileOf(int(cq.qx), int(cq.qy), qside, qside)] % cfg.NumSC
		tw.perSC[sc] = append(tw.perSC[sc], int32(i))
	}
	// Rasterizer throughput plus the four parallel Early-Z units (1
	// quad/cycle each).
	tw.rasterCycles += int64(float64(cov.quadsTested) / cfg.RasterRate)
	tw.rasterCycles += int64(len(cov.quads) / 4)
}

// coverTile computes the tile's coverage from scratch: coverage + Early-Z
// over every binned primitive, shader workloads, and texture sample
// footprints, filled into out (or a fresh cover when out is nil). When
// cfg.RenderTarget is set it also resolves colors, which is why
// precomputed covers are restricted to RenderTarget == nil.
func (c *coverer) coverTile(tx, ty int, out *tileCover) *tileCover {
	cfg := &c.cfg
	tw := out
	if tw == nil {
		tw = &tileCover{}
	}
	tw.reset()
	c.zbuf.Reset()

	ts := cfg.TileSize
	ox := tx * ts // tile origin in screen pixels
	oy := ty * ts

	for _, pi := range c.binning.List(tx, ty) {
		p := &c.prims[pi]
		// Quad range of the primitive's bbox clipped to this tile and to
		// the physical screen (edge tiles may extend past it).
		qx0, qy0, qx1, qy1 := quadRange(p, ox, oy, ts, cfg.Width, cfg.Height)
		if qx0 > qx1 || qy0 > qy1 {
			continue
		}
		opaque := p.Alpha >= 1
		for qy := qy0; qy <= qy1; qy++ {
			for qx := qx0; qx <= qx1; qx++ {
				tw.quadsTested++
				px := ox + qx*2 // quad's top-left pixel in screen coords
				py := oy + qy*2
				// Coverage + Early-Z over the quad's four pixels. A quad
				// is covered if any pixel center is inside the triangle,
				// and survives if any covered pixel passes the depth
				// test; only covered-but-occluded quads count as culled.
				// Transparent fragments test but never write depth.
				covered := false
				alive := false
				var passMask, coverMask uint8
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						x := float64(px+dx) + 0.5
						y := float64(py+dy) + 0.5
						if !p.Setup.Inside(x, y) {
							continue
						}
						covered = true
						coverMask |= 1 << uint(dy*2+dx)
						d := p.Setup.DepthAt(x, y)
						var pass bool
						if opaque {
							pass = c.zbuf.TestAndSet(qx*2+dx, qy*2+dy, d)
						} else {
							pass = c.zbuf.Pass(qx*2+dx, qy*2+dy, d)
						}
						if pass {
							alive = true
							passMask |= 1 << uint(dy*2+dx)
						}
					}
				}
				if !covered {
					continue
				}
				if !alive {
					if !cfg.LateZ {
						tw.culled++
						continue
					}
					// Late-Z: occluded quads are shaded anyway; the Z
					// resolution moves behind the fragment stage.
					alive = true
				}
				if cfg.RenderTarget != nil && passMask != 0 {
					resolveColor(cfg.RenderTarget, p, px, py, passMask)
				}
				// Fragments actually shaded: the visible lanes under
				// Early-Z, or every covered lane under Late-Z (the SIMD
				// quad always executes, but only these lanes are live).
				if cfg.LateZ {
					tw.fragments += uint64(popcount4(coverMask))
				} else {
					tw.fragments += uint64(popcount4(passMask))
				}
				tw.addQuad(p, qx, qy, px, py)
			}
		}
	}
	return tw
}

// addQuad appends a surviving quad of primitive p — tile quad (qx, qy)
// at screen pixel (px, py) — with its shader workload and the line
// footprints of its texture samples. The texture state is shared by the
// whole quad: sampled at the quad center, the texture unit coalesces the
// four fragments' accesses. Dependent-read jitter perturbs the sample
// position per quad; it depends only on screen position and primitive,
// never on scheduling.
func (c *tileCover) addQuad(p *Primitive, qx, qy, px, py int) {
	uv := p.Setup.UVAt(float64(px)+1.0, float64(py)+1.0)
	jx, jy := quadJitter(px, py, p.ID)
	uv.X += jx * p.UVJitter / float64(p.Tex.Width)
	uv.Y += jy * p.UVJitter / float64(p.Tex.Height)
	cq := coverQuad{
		qx:        int16(qx),
		qy:        int16(qy),
		samples:   int8(p.Shader.Samples),
		instr:     int16(p.Shader.Instructions),
		firstSpan: int32(len(c.spans)),
	}
	for s := 0; s < p.Shader.Samples; s++ {
		du := float64(s*sampleUVStride) / float64(p.Tex.Width)
		off := int32(len(c.lines))
		c.lines = p.Tex.AppendFootprint(c.lines, p.Filter, uv.X+du, uv.Y, p.LOD)
		c.spans = append(c.spans, span{off: off, n: int32(len(c.lines)) - off})
	}
	cq.setSegs()
	c.quads = append(c.quads, cq)
}

// resolveColor shades the depth-passing pixels of the quad at (px, py)
// into the render target: per-pixel filtered texture samples averaged
// across the shader's sample layers, alpha-blended over the destination.
// Colors are a pure function of scene and position, so the image cannot
// depend on scheduling; resolving in rasterization (= primitive) order
// gives the blend ordering the real Blending unit preserves. Shared by
// the TBR rasterizer and the IMR machine: both must render the same
// frame.
func resolveColor(rt *render.Framebuffer, p *Primitive, px, py int, passMask uint8) {
	jx, jy := quadJitter(px, py, p.ID)
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			if passMask&(1<<uint(dy*2+dx)) == 0 {
				continue
			}
			x := float64(px+dx) + 0.5
			y := float64(py+dy) + 0.5
			uv := p.Setup.UVAt(x, y)
			uv.X += jx * p.UVJitter / float64(p.Tex.Width)
			uv.Y += jy * p.UVJitter / float64(p.Tex.Height)
			var sr, sg, sb int
			n := p.Shader.Samples
			if n < 1 {
				n = 1
			}
			for s := 0; s < n; s++ {
				du := float64(s*sampleUVStride) / float64(p.Tex.Width)
				c := texture.SampleColor(p.Tex, uv.X+du, uv.Y, p.LOD, p.Filter)
				sr += int(c.R())
				sg += int(c.G())
				sb += int(c.B())
			}
			src := render.RGBA(uint8(sr/n), uint8(sg/n), uint8(sb/n), 0xff)
			rt.Set(px+dx, py+dy, render.Over(src, rt.At(px+dx, py+dy), p.Alpha))
		}
	}
}

// quadJitter returns a deterministic pseudo-random offset in [-1, 1]^2
// for the quad at screen pixel (px, py) of primitive id. It is a pure
// function of position, so every scheduler sees identical addresses.
func quadJitter(px, py, id int) (float64, float64) {
	h := uint64(px)*0x9e3779b97f4a7c15 ^ uint64(py)*0xc2b2ae3d27d4eb4f ^ uint64(id)*0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	jx := float64(uint32(h))/float64(1<<32)*2 - 1
	jy := float64(uint32(h>>32))/float64(1<<32)*2 - 1
	return jx, jy
}

// quadRange clips primitive p's bounds to the tile at pixel origin
// (ox, oy) and to the screen, returning an inclusive quad-coordinate
// range within the tile.
func quadRange(p *Primitive, ox, oy, tileSize, screenW, screenH int) (qx0, qy0, qx1, qy1 int) {
	minX := int(p.Bounds.MinX)
	minY := int(p.Bounds.MinY)
	maxX := int(p.Bounds.MaxX)
	maxY := int(p.Bounds.MaxY)
	if minX < ox {
		minX = ox
	}
	if minY < oy {
		minY = oy
	}
	hi := ox + tileSize - 1
	if hi > screenW-1 {
		hi = screenW - 1
	}
	if maxX > hi {
		maxX = hi
	}
	hi = oy + tileSize - 1
	if hi > screenH-1 {
		hi = screenH - 1
	}
	if maxY > hi {
		maxY = hi
	}
	qx0 = (minX - ox) / 2
	qy0 = (minY - oy) / 2
	qx1 = (maxX - ox) / 2
	qy1 = (maxY - oy) / 2
	return
}
