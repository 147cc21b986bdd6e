package pipeline

import (
	"context"
	"reflect"
	"testing"

	"dtexl/internal/cache"
	"dtexl/internal/sched"
	"dtexl/internal/tileorder"
)

// TestTileSkeletonPolicyIndependent pins the invariant the shared-cover
// optimization rests on (§III-C): the tile skeleton — surviving quads,
// their sample spans and texture lines, and the tile's raster cycle
// count — is identical under every Grouping and Assignment policy. Only
// the quad→SC partition (tileWork.perSC) may differ.
func TestTileSkeletonPolicyIndependent(t *testing.T) {
	cfg := testConfig()
	scene := testScene(t, "SWa", cfg)
	base := cache.NewHierarchy(cfg.Hierarchy)
	geo := RunGeometry(scene, base, cfg)
	bin := BinPrimitives(geo.Primitives, base, cfg)
	tiles := tileorder.Sequence(cfg.TileOrder, cfg.TilesX(), cfg.TilesY())

	type skel struct {
		quads  []coverQuad
		spans  []span
		lines  []uint32
		cycles int64
	}
	var ref []skel
	var refName string
	for _, g := range sched.Groupings() {
		for _, a := range sched.Assignments() {
			c := cfg
			c.Grouping, c.Assignment = g, a
			r := newRasterizer(c, geo.Primitives, bin, cache.NewHierarchy(c.Hierarchy))
			cur := make([]skel, 0, len(tiles))
			tw := &tileWork{}
			for i, pt := range tiles {
				r.rasterizeTile(tw, i, pt)
				cov := tw.cov
				cur = append(cur, skel{
					quads:  append([]coverQuad(nil), cov.quads...),
					spans:  append([]span(nil), cov.spans...),
					lines:  append([]uint32(nil), cov.lines...),
					cycles: tw.rasterCycles,
				})
			}
			name := g.String() + "/" + a.String()
			if ref == nil {
				ref, refName = cur, name
				continue
			}
			for i := range ref {
				if !reflect.DeepEqual(ref[i], cur[i]) {
					t.Fatalf("tile %d skeleton differs between %s and %s", i, refName, name)
				}
			}
		}
	}
}

// TestPreparedRunsBitIdenticalWithPooling proves the pipeline-level
// half of the memoization contract under the pooled executor: a run on
// precomputed covers (recycled tileWork units, shared skeletons) returns
// metrics bit-identical to a live run, in both barrier disciplines.
func TestPreparedRunsBitIdenticalWithPooling(t *testing.T) {
	cfg := testConfig()
	scene := testScene(t, "CRa", cfg)
	for _, decoupled := range []bool{false, true} {
		c := cfg
		c.Decoupled = decoupled
		if decoupled {
			c.Grouping = sched.CGSquare
		}
		live, err := Run(scene, c)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := PrepareFrame(scene, c)
		if err != nil {
			t.Fatal(err)
		}
		memo, err := RunPrepared(prep, c)
		if err != nil {
			t.Fatal(err)
		}
		// The wall-time split is measurement metadata, not simulation
		// output; everything else must match exactly.
		if !reflect.DeepEqual(live, memo) {
			t.Errorf("decoupled=%v: prepared run differs from live run", decoupled)
		}

		// Instrumentation-off invariance, prepared-path half: a prepared
		// run with interval sampling enabled must still be bit-identical
		// to the uninstrumented live run outside the observability-only
		// fields (the same prepared frame is reusable either way).
		ci := c
		ci.SampleEvery = 512
		inst, err := RunPrepared(prep, ci)
		if err != nil {
			t.Fatal(err)
		}
		if len(inst.Intervals) == 0 {
			t.Fatalf("decoupled=%v: instrumented prepared run captured no intervals", decoupled)
		}
		inst.Intervals, inst.IntervalsDropped = nil, 0
		inst.Config.SampleEvery = 0
		if !reflect.DeepEqual(live, inst) {
			t.Errorf("decoupled=%v: sampling perturbed the prepared run", decoupled)
		}
	}
}

// TestCoupledSteadyStateZeroAlloc asserts the coupled raster loop's
// steady state allocates nothing per tile: after the warm-up tile has
// grown the pooled buffers, rasterize + barrier + drain + flush for
// every further tile must run entirely on recycled storage.
func TestCoupledSteadyStateZeroAlloc(t *testing.T) {
	cfg := testConfig()
	scene := testScene(t, "SWa", cfg)
	hier := cache.NewHierarchy(cfg.Hierarchy)
	geo := RunGeometry(scene, hier, cfg)
	bin := BinPrimitives(geo.Primitives, hier, cfg)
	cov := newCoverer(cfg, geo.Primitives, bin)
	tilesX, tilesY := cfg.TilesX(), cfg.TilesY()
	covers := make([]*tileCover, tilesX*tilesY)
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < tilesX; tx++ {
			covers[ty*tilesX+tx] = cov.coverTile(tx, ty, nil)
		}
	}

	ex := newExecutor(cfg, hier, geo.Primitives, bin)
	ex.raster.cov.pre = covers
	ex.wd = newWatchdog(context.Background(), cfg)
	ex.es.runAhead = runsAhead(context.Background(), cfg)
	// Instrumentation-off invariance: with the default SampleEvery == 0
	// no sampler exists, so the only observability cost on this path is
	// the stall counters' integer adds — which allocate nothing.
	if cfg.SampleEvery != 0 || ex.es.sampler != nil {
		t.Fatalf("instrumentation unexpectedly enabled by default (SampleEvery=%d, sampler=%v)",
			cfg.SampleEvery, ex.es.sampler)
	}
	ex.beginCoupled()
	if err := ex.coupledTile(0); err != nil {
		t.Fatal(err)
	}
	n := len(ex.seq)
	if n < 8 {
		t.Fatalf("scene too small for a steady-state window: %d tiles", n)
	}
	next := 1
	// AllocsPerRun adds one warm-up invocation, so this consumes tiles
	// 1..n-1 exactly.
	avg := testing.AllocsPerRun(n-2, func() {
		if err := ex.coupledTile(next); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if avg != 0 {
		t.Errorf("coupled steady state allocates %.2f allocs/tile, want 0", avg)
	}
}

// TestPreparedSizeBytesCoversRetainedSlices: PrepBudget's LRU evicts on
// SizeBytes, so the estimate must never fall below the backing arrays a
// prepared frame actually retains — the primitives, the bin lists,
// every slice field of every tile cover and every array of the
// hierarchy snapshot (cache ways, DRAM open rows), each at its capacity
// times its element's real size.
func TestPreparedSizeBytesCoversRetainedSlices(t *testing.T) {
	backing := func(v reflect.Value) int64 { return int64(v.Cap()) * int64(v.Type().Elem().Size()) }
	// under sums the arrays of every slice reachable from v through
	// pointers and struct fields.
	var under func(v reflect.Value) int64
	under = func(v reflect.Value) int64 {
		var n int64
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				n = under(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				n += under(v.Field(i))
			}
		case reflect.Slice:
			n = backing(v)
		}
		return n
	}
	for _, alias := range []string{"SWa", "CCS", "TRu"} {
		cfg := testConfig()
		prep, err := PrepareFrame(testScene(t, alias, cfg), cfg)
		if err != nil {
			t.Fatal(err)
		}
		retained := backing(reflect.ValueOf(prep.Geometry.Primitives))
		for _, l := range prep.Binning.Lists {
			retained += backing(reflect.ValueOf(l))
		}
		for _, c := range prep.covers {
			v := reflect.ValueOf(*c)
			for i := 0; i < v.NumField(); i++ {
				if v.Field(i).Kind() == reflect.Slice {
					retained += backing(v.Field(i))
				}
			}
		}
		snapshot := under(reflect.ValueOf(prep.front))
		h := cfg.Hierarchy
		if ways := int64(h.Vertex.SizeBytes/h.Vertex.LineBytes+h.Tile.SizeBytes/h.Tile.LineBytes+h.L2.SizeBytes/h.L2.LineBytes) * 8; snapshot < ways {
			t.Fatalf("%s: snapshot arrays %d bytes, below the %d bytes of its one-word ways", alias, snapshot, ways)
		}
		retained += snapshot
		if est := prep.SizeBytes(); est < retained {
			t.Errorf("%s: SizeBytes %d below the %d retained slice bytes", alias, est, retained)
		}
	}
}

// TestPreparedRunAllocsIndependentOfTiles guards the allocation-free
// steady state of both barrier disciplines end to end: a prepared
// frame's RunPrepared allocates per-frame setup only (hierarchy,
// executor, per-tile arrays and metrics), so the count of allocations
// must not grow with the tile count, from scale 16 to scale 4 (16× the
// tiles).
func TestPreparedRunAllocsIndependentOfTiles(t *testing.T) {
	for _, decoupled := range []bool{false, true} {
		var want float64
		for i, scale := range []int{16, 8, 4} {
			cfg := DefaultConfig()
			cfg.Width, cfg.Height = 1960/scale, 768/scale
			cfg.Decoupled = decoupled
			prep, err := PrepareFrame(testScene(t, "SWa", cfg), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(3, func() {
				if _, err := RunPrepared(prep, cfg); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("decoupled=%v scale %d: %.0f allocs/frame", decoupled, scale, got)
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("decoupled=%v: scale %d allocates %.0f per frame, scale 16 %.0f: allocations grow with the tile count",
					decoupled, scale, got, want)
			}
		}
	}
}
