package pipeline

import (
	"testing"

	"dtexl/internal/cache"
	"dtexl/internal/geom"
	"dtexl/internal/sched"
	"dtexl/internal/texture"
	"dtexl/internal/tileorder"
	"dtexl/internal/trace"
)

func TestQuadRangeClipsToTileAndScreen(t *testing.T) {
	p := &Primitive{Bounds: geom.AABB{MinX: -10, MinY: -10, MaxX: 1000, MaxY: 1000}}
	// Tile at origin (0,0), 32px tiles, screen 50x40 (not tile-aligned).
	qx0, qy0, qx1, qy1 := quadRange(p, 0, 0, 32, 50, 40)
	if qx0 != 0 || qy0 != 0 {
		t.Errorf("lower corner = (%d,%d)", qx0, qy0)
	}
	if qx1 != 15 || qy1 != 15 {
		t.Errorf("upper corner = (%d,%d), want (15,15)", qx1, qy1)
	}
	// Edge tile at (32,32): screen limits to pixel 49x39.
	qx0, qy0, qx1, qy1 = quadRange(p, 32, 32, 32, 50, 40)
	if qx1 != (49-32)/2 || qy1 != (39-32)/2 {
		t.Errorf("edge tile upper corner = (%d,%d)", qx1, qy1)
	}
	// Primitive entirely right of the tile: empty range.
	p2 := &Primitive{Bounds: geom.AABB{MinX: 100, MinY: 0, MaxX: 120, MaxY: 10}}
	qx0, _, qx1, _ = quadRange(p2, 0, 0, 32, 200, 200)
	if qx0 <= qx1 {
		t.Errorf("disjoint primitive produced range %d..%d", qx0, qx1)
	}
}

func TestQuadJitterDeterministicAndBounded(t *testing.T) {
	for px := 0; px < 64; px += 2 {
		for py := 0; py < 64; py += 2 {
			x1, y1 := quadJitter(px, py, 7)
			x2, y2 := quadJitter(px, py, 7)
			if x1 != x2 || y1 != y2 {
				t.Fatal("jitter not deterministic")
			}
			if x1 < -1 || x1 > 1 || y1 < -1 || y1 > 1 {
				t.Fatalf("jitter out of range: %v %v", x1, y1)
			}
		}
	}
	// Different primitives must jitter differently (almost surely).
	a, _ := quadJitter(10, 10, 1)
	b, _ := quadJitter(10, 10, 2)
	if a == b {
		t.Error("distinct primitives share jitter")
	}
}

func TestJitterIndependentOfScheduling(t *testing.T) {
	// The same scene rasterized under two different assignments must
	// touch exactly the same set of texture lines (just on different
	// SCs): addresses are a pure function of position.
	cfg := testConfig()
	hier := cache.NewHierarchy(cfg.Hierarchy)
	scene := testScene(t, "SWa", cfg)
	geo := RunGeometry(scene, hier, cfg)
	b := BinPrimitives(geo.Primitives, hier, cfg)

	collect := func(assign sched.Assignment, order tileorder.Kind) map[uint32]int {
		c := cfg
		c.Assignment = assign
		c.TileOrder = order
		r := newRasterizer(c, geo.Primitives, b, cache.NewHierarchy(c.Hierarchy))
		lines := make(map[uint32]int)
		tw := &tileWork{}
		for i, pt := range tileorder.Sequence(order, c.TilesX(), c.TilesY()) {
			r.rasterizeTile(tw, i, pt)
			for _, l := range tw.cov.lines {
				lines[l]++
			}
		}
		return lines
	}
	a := collect(sched.ConstAssign, tileorder.ZOrder)
	bm := collect(sched.Flp2, tileorder.HilbertRect)
	if len(a) != len(bm) {
		t.Fatalf("distinct line sets: %d vs %d", len(a), len(bm))
	}
	for l, n := range a {
		if bm[l] != n {
			t.Fatalf("line %#x count %d vs %d", l, n, bm[l])
		}
	}
}

func TestRasterizeTileHonorsGroupingAndPerm(t *testing.T) {
	cfg := testConfig()
	cfg.Grouping = sched.CGSquare
	hier := cache.NewHierarchy(cfg.Hierarchy)
	scene := testScene(t, "SWa", cfg)
	geo := RunGeometry(scene, hier, cfg)
	b := BinPrimitives(geo.Primitives, hier, cfg)
	r := newRasterizer(cfg, geo.Primitives, b, hier)
	tw := &tileWork{}
	r.rasterizeTile(tw, 0, tileorder.Point{X: 0, Y: 0})
	if len(tw.cov.quads) == 0 {
		t.Fatal("no quads in tile 0")
	}
	// perSC lists must partition the quads, and each quad must land on
	// the SC its subtile's permutation entry names.
	perm := sched.NewAssigner(cfg.Assignment, cfg.Grouping).Next(tileorder.Point{X: 0, Y: 0})
	qside := cfg.QuadsPerTileSide()
	seen := make([]int, len(tw.cov.quads))
	total := 0
	for sc, list := range tw.perSC {
		total += len(list)
		for _, qi := range list {
			seen[qi]++
			cq := &tw.cov.quads[qi]
			want := perm[cfg.Grouping.SubtileOf(int(cq.qx), int(cq.qy), qside, qside)] % cfg.NumSC
			if want != sc {
				t.Fatalf("quad %d in list %d but its subtile maps to SC %d", qi, sc, want)
			}
		}
	}
	if total != len(tw.cov.quads) {
		t.Fatalf("perSC lists cover %d of %d quads", total, len(tw.cov.quads))
	}
	for qi, n := range seen {
		if n != 1 {
			t.Fatalf("quad %d appears in %d perSC lists", qi, n)
		}
	}
}

func TestSpansMatchSamples(t *testing.T) {
	cfg := testConfig()
	hier := cache.NewHierarchy(cfg.Hierarchy)
	scene := testScene(t, "CRa", cfg)
	geo := RunGeometry(scene, hier, cfg)
	b := BinPrimitives(geo.Primitives, hier, cfg)
	r := newRasterizer(cfg, geo.Primitives, b, hier)
	tw := &tileWork{}
	r.rasterizeTile(tw, 0, tileorder.Point{X: 1, Y: 1})
	for _, q := range tw.cov.quads {
		if q.samples <= 0 {
			t.Fatal("quad with no samples")
		}
		for s := int32(0); s < int32(q.samples); s++ {
			sp := tw.cov.spans[q.firstSpan+s]
			if sp.n <= 0 {
				t.Fatal("empty sample footprint")
			}
			if int(sp.off+sp.n) > len(tw.cov.lines) {
				t.Fatal("span exceeds line arena")
			}
		}
	}
}

func TestRasterCostsPositive(t *testing.T) {
	cfg := testConfig()
	hier := cache.NewHierarchy(cfg.Hierarchy)
	scene := testScene(t, "SWa", cfg)
	geo := RunGeometry(scene, hier, cfg)
	b := BinPrimitives(geo.Primitives, hier, cfg)
	r := newRasterizer(cfg, geo.Primitives, b, hier)
	tw := &tileWork{}
	r.rasterizeTile(tw, 0, tileorder.Point{X: 0, Y: 0})
	if tw.rasterCycles <= 0 {
		t.Error("no raster cost recorded")
	}
}

func TestEdgeTilesRespectScreenBounds(t *testing.T) {
	// With a screen that is not tile-aligned (like the paper's 1960x768),
	// edge tiles must not shade quads beyond the screen. A scene holding
	// only a huge full-screen quad pins the expected count exactly: one
	// shaded quad per on-screen 2x2 pixel block, nothing more.
	cfg := testConfig()
	cfg.Width = 250 // 7.8125 tiles wide -> 8 tiles, last tile partial
	cfg.Height = 120
	w, h := float64(cfg.Width), float64(cfg.Height)
	tex := texture.New(0, 0x1000_0000, 64, 64)
	scene := &trace.Scene{
		Width: cfg.Width, Height: cfg.Height,
		Textures: []*texture.Texture{tex},
		Draws: []trace.DrawCommand{{
			Transform:  geom.Orthographic(0, w, h, 0, 0, 1),
			VertexBase: 0x4000_0000,
			Vertices: []trace.Vertex{
				{Pos: geom.Vec3{X: -50, Y: -50, Z: 0.5}, UV: geom.Vec2{}},
				{Pos: geom.Vec3{X: w + 50, Y: -50, Z: 0.5}, UV: geom.Vec2{X: 2}},
				{Pos: geom.Vec3{X: -50, Y: h + 50, Z: 0.5}, UV: geom.Vec2{Y: 2}},
				{Pos: geom.Vec3{X: w + 50, Y: h + 50, Z: 0.5}, UV: geom.Vec2{X: 2, Y: 2}},
			},
			Indices: []int{0, 1, 2, 2, 1, 3},
			Tex:     tex,
			Shader:  trace.ShaderProfile{Instructions: 8, Samples: 1},
			Filter:  texture.Bilinear,
		}},
	}
	m, err := Run(scene, cfg)
	if err != nil {
		t.Fatal(err)
	}
	screenQuads := uint64(((cfg.Width + 1) / 2) * ((cfg.Height + 1) / 2))
	// The diagonal of the two triangles double-covers its quads once
	// (edge-inclusive tests), so allow the diagonal's worth of slack.
	diagSlack := uint64(cfg.Width/2 + cfg.Height/2 + 2)
	got := m.Events.QuadsShaded + m.Events.QuadsCulled
	if got < screenQuads {
		t.Errorf("covered %d quads, below full-screen %d", got, screenQuads)
	}
	if got > screenQuads+diagSlack {
		t.Errorf("covered %d quads, above screen+diagonal %d: off-screen leak",
			got, screenQuads+diagSlack)
	}
}

func TestSamplerFilterSelection(t *testing.T) {
	// The cover takes each primitive's filter; confirm footprints of
	// different filters differ for the same primitive state.
	tex := texture.New(0, 0, 256, 256)
	nb := len(tex.AppendFootprint(nil, texture.Bilinear, 0.3, 0.3, 1.5))
	nt := len(tex.AppendFootprint(nil, texture.Trilinear, 0.3, 0.3, 1.5))
	if nb >= nt {
		t.Errorf("bilinear lines %d >= trilinear %d", nb, nt)
	}
}
