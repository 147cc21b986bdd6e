package pipeline

import (
	"context"
	"fmt"
	"time"
	"unsafe"

	"dtexl/internal/cache"
	"dtexl/internal/dram"
	"dtexl/internal/trace"
)

// FrontKey is the subset of Config that the policy-independent front
// half of a frame — geometry fetch, binning, and raster coverage —
// actually depends on. Two configs with equal FrontKeys can share one
// PreparedFrame, whatever their scheduling policy, SC count, L1 texture
// geometry, warp configuration or barrier discipline.
type FrontKey struct {
	Width, Height  int
	TileSize       int
	PreciseBinning bool
	LateZ          bool
	Vertex         cache.Config
	Tile           cache.Config
	L2             cache.Config
	DRAM           dram.Config
}

// FrontKeyOf projects cfg onto its front-half fields.
func FrontKeyOf(cfg Config) FrontKey {
	return FrontKey{
		Width:          cfg.Width,
		Height:         cfg.Height,
		TileSize:       cfg.TileSize,
		PreciseBinning: cfg.PreciseBinning,
		LateZ:          cfg.LateZ,
		Vertex:         cfg.Hierarchy.Vertex,
		Tile:           cfg.Hierarchy.Tile,
		L2:             cfg.Hierarchy.L2,
		DRAM:           cfg.Hierarchy.DRAM,
	}
}

// PreparedFrame is the memoized front half of one frame's simulation:
// the Geometry Pipeline's output, the Tiling Engine's Parameter Buffer,
// a deep snapshot of the memory-hierarchy state those two phases
// produced, and the policy-independent per-tile raster coverage. It is
// immutable once built and safe to share across any number of
// concurrent RunPrepared calls.
//
// Only the front half is captured. Everything policy-dependent — the
// tile walk, subtile-to-SC assignment, warp execution, and the live L1
// texture / L2 / DRAM interaction of the fragment phase — is re-simulated
// per policy, so a prepared run is bit-identical to an unprepared one.
type PreparedFrame struct {
	// Geometry is the Geometry Pipeline's output (read-only).
	Geometry GeometryResult
	// Binning is the binned Parameter Buffer (read-only).
	Binning *Binning
	// GeometryTime and CoverageTime split the preparation's wall time
	// between its two halves (geometry+binning vs. per-tile coverage), so
	// callers can attribute phase cost without a profiler.
	GeometryTime time.Duration
	CoverageTime time.Duration

	front  *cache.FrontState
	covers []*tileCover
	key    FrontKey
}

// Key returns the FrontKey the frame was prepared under.
func (p *PreparedFrame) Key() FrontKey { return p.key }

// PrepareFrame runs the policy-independent front half of a frame under
// cfg and captures everything the raster phase needs. cfg.RenderTarget
// must be nil: coverage with a live render target also resolves colors,
// which must happen on the live path.
func PrepareFrame(scene *trace.Scene, cfg Config) (*PreparedFrame, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.RenderTarget != nil {
		return nil, fmt.Errorf("pipeline: PrepareFrame requires a nil RenderTarget")
	}
	if scene.Width != cfg.Width || scene.Height != cfg.Height {
		return nil, fmt.Errorf("pipeline: scene is %dx%d but config is %dx%d",
			scene.Width, scene.Height, cfg.Width, cfg.Height)
	}
	t0 := time.Now()
	hier := cache.NewHierarchy(cfg.Hierarchy)
	geo := RunGeometry(scene, hier, cfg)
	binning := BinPrimitives(geo.Primitives, hier, cfg)
	p := &PreparedFrame{
		Geometry:     geo,
		Binning:      binning,
		GeometryTime: time.Since(t0),
		front:        hier.SaveFront(),
		key:          FrontKeyOf(cfg),
	}
	t1 := time.Now()
	// Every tile is covered into one reused scratch cover and kept as an
	// exact-length copy: a retained cover holds no growth slack.
	cov := newCoverer(cfg, geo.Primitives, binning)
	tilesX, tilesY := cfg.TilesX(), cfg.TilesY()
	covers := make([]tileCover, tilesX*tilesY)
	p.covers = make([]*tileCover, len(covers))
	var scratch tileCover
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < tilesX; tx++ {
			i := ty*tilesX + tx
			c := cov.coverTile(tx, ty, &scratch)
			covers[i] = *c
			covers[i].quads = exactCopy(c.quads)
			covers[i].spans = exactCopy(c.spans)
			covers[i].lines = exactCopy(c.lines)
			p.covers[i] = &covers[i]
		}
	}
	p.CoverageTime = time.Since(t1)
	return p, nil
}

// exactCopy returns a copy of s whose capacity equals its length (nil
// when s is empty), so it retains no slack and no reference to s.
func exactCopy[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// SizeBytes estimates the retained memory of the prepared frame, for
// cache budgeting. Every retained slice — the hierarchy snapshot's
// included — counts at its capacity times its element's real size, so
// the estimate never falls below the slice bytes actually held.
func (p *PreparedFrame) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*p)) + int64(unsafe.Sizeof(*p.Binning)) + p.front.SizeBytes()
	n += sliceBytes(p.Geometry.Primitives)
	n += sliceBytes(p.Binning.Lists)
	for _, l := range p.Binning.Lists {
		n += sliceBytes(l)
	}
	n += sliceBytes(p.covers)
	for _, c := range p.covers {
		n += int64(unsafe.Sizeof(*c)) + sliceBytes(c.quads) + sliceBytes(c.spans) + sliceBytes(c.lines)
	}
	return n
}

// sliceBytes is the size of s's backing array.
func sliceBytes[T any](s []T) int64 {
	var zero T
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}

// RunPrepared simulates one frame's raster phase on top of a prepared
// front half, under a (possibly different) policy configuration. The
// result is bit-identical to Run(scene, cfg): the restored hierarchy
// snapshot reproduces the exact post-geometry machine state, and the
// precomputed coverage replaces only computation that never touches the
// hierarchy.
//
// cfg must agree with the preparation on every front-half field
// (FrontKeyOf) and must not set a RenderTarget; multi-frame animations
// must use RunFrames, whose later frames see policy-warmed caches.
func RunPrepared(prep *PreparedFrame, cfg Config) (*Metrics, error) {
	return RunPreparedContext(context.Background(), prep, cfg)
}

// RunPreparedContext is RunPrepared under a context for cancellation,
// deadlines and stall diagnostics.
func RunPreparedContext(ctx context.Context, prep *PreparedFrame, cfg Config) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.RenderTarget != nil {
		return nil, fmt.Errorf("pipeline: RunPrepared requires a nil RenderTarget")
	}
	if k := FrontKeyOf(cfg); k != prep.key {
		return nil, fmt.Errorf("pipeline: config front key %+v does not match preparation %+v", k, prep.key)
	}
	hier := cache.NewHierarchy(cfg.Hierarchy)
	if err := hier.RestoreFront(prep.front); err != nil {
		return nil, err
	}
	return rasterFrame(ctx, cfg, hier, prep.Geometry, prep.Binning, prep.covers)
}
