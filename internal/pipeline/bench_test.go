package pipeline

import (
	"context"
	"testing"

	"dtexl/internal/cache"
	"dtexl/internal/tileorder"
	"dtexl/internal/trace"
)

// The microbenchmarks cover the simulator's hot path layer by layer —
// tile rasterization, frame preparation, the shader-core step loop, a
// prepared frame's raster phase and a whole frame in both barrier
// disciplines — on the same mid-size scene. CI compares them against
// BENCH_baseline.txt (see .github/workflows/ci.yml).

func benchScene(b *testing.B, alias string, cfg Config) *trace.Scene {
	b.Helper()
	p, err := trace.ProfileByAlias(alias)
	if err != nil {
		b.Fatal(err)
	}
	return trace.GenerateScene(p, cfg.Width, cfg.Height, 1)
}

func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 490, 192 // paper resolution / 4
	return cfg
}

// BenchmarkRasterizeTile measures the live (unprepared) raster front
// end: tile fetch, coverage + Early-Z, footprints and the quad→SC
// partition, on recycled tileWork storage.
func BenchmarkRasterizeTile(b *testing.B) {
	cfg := benchConfig()
	scene := benchScene(b, "SWa", cfg)
	hier := cache.NewHierarchy(cfg.Hierarchy)
	geo := RunGeometry(scene, hier, cfg)
	bin := BinPrimitives(geo.Primitives, hier, cfg)
	r := newRasterizer(cfg, geo.Primitives, bin, hier)
	tiles := tileorder.Sequence(cfg.TileOrder, cfg.TilesX(), cfg.TilesY())
	tw := &tileWork{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.rasterizeTile(tw, i%len(tiles), tiles[i%len(tiles)])
	}
}

// BenchmarkPrepareFrame measures frame preparation — geometry, binning
// and every tile's coverage with its texture line footprints — the
// front half a cold cell pays once before its first raster.
func BenchmarkPrepareFrame(b *testing.B) {
	cfg := benchConfig()
	scene := benchScene(b, "SWa", cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PrepareFrame(scene, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSCStep measures the shader-core scheduling loop draining a
// synthetic miss-stream tile: admission, warp scan, exec and the fill
// port model, without executor overhead.
func BenchmarkSCStep(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumSC = 1
	cfg.Hierarchy.NumSC = 1
	cfg.WarpSlots = 8
	es := &engineState{cfg: cfg, hier: cache.NewHierarchy(cfg.Hierarchy)}
	tw := buildTileWork(256, 12, true)
	steps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := &scState{id: 0}
		sc.setInput(tw, 0)
		for sc.pending() {
			if !sc.step(es) {
				b.Fatal("SC blocked")
			}
			steps++
		}
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkRunFrame measures one whole-frame simulation from scene to
// metrics, in the coupled baseline and the decoupled DTexL discipline.
func BenchmarkRunFrame(b *testing.B) {
	for _, bc := range []struct {
		name      string
		decoupled bool
	}{{"coupled", false}, {"decoupled", true}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Decoupled = bc.decoupled
			scene := benchScene(b, "SWa", cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(scene, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunPrepared measures the raster phase alone: one prepared
// frame simulated in both barrier disciplines, with the stepping
// kernel's run-ahead and with the stepwise reference that runs every
// step whole in global order. The pair is the in-process A/B of the
// run-ahead engine.
func BenchmarkRunPrepared(b *testing.B) {
	for _, decoupled := range []bool{false, true} {
		cfg := benchConfig()
		cfg.Decoupled = decoupled
		prep, err := PrepareFrame(benchScene(b, "SWa", cfg), cfg)
		if err != nil {
			b.Fatal(err)
		}
		discipline := "coupled"
		if decoupled {
			discipline = "decoupled"
		}
		for _, mode := range []struct {
			name string
			ctx  context.Context
		}{
			{"runahead", context.Background()},
			{"stepwise", context.WithValue(context.Background(), stepwiseKey{}, true)},
		} {
			b.Run(discipline+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := RunPreparedContext(mode.ctx, prep, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRunInstrumented bounds the cycle-attribution subsystem's
// cost on a whole coupled frame. The "off" variant is the default
// configuration (stall counters only — they ride the existing clock
// updates); "on" adds interval sampling and the tile timeline. CI
// compares the two medians directly (see the bench job), gating the
// enabled-path overhead at 5%.
func BenchmarkRunInstrumented(b *testing.B) {
	for _, bc := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := benchConfig()
			if bc.on {
				cfg.SampleEvery = 1024
				cfg.CollectTimeline = true
			}
			scene := benchScene(b, "SWa", cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(scene, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
