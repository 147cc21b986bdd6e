// Package sim drives complete experiments: it wires benchmarks (trace),
// policies (core), the pipeline and the energy model together, and
// implements one function per table and figure of the paper's evaluation
// (see experiments.go and DESIGN.md's experiment index).
//
// Runs are memoized at three layers (scene store, preparation store,
// simulation memo), each single-flighted so concurrent workers never
// duplicate a computation, and each cancellation-safe: a waiter whose
// context ends detaches without poisoning the shared entry.
// Runner.Parallelism bounds one worker pool that runs whole simulations
// concurrently, both in Warm and across the benchmarks of each
// experiment row; each simulation is itself serial and deterministic,
// and values, failures and errors come back in benchmark order, so
// output does not depend on the setting (DESIGN.md §11).
package sim

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/energy"
	"dtexl/internal/pipeline"
	"dtexl/internal/trace"
)

// Options selects the simulated machine size and workload inputs shared
// by every experiment.
type Options struct {
	// Width, Height is the screen resolution. The paper's Table II
	// resolution is 1960x768; smaller values run proportionally faster
	// with the same qualitative behaviour.
	Width, Height int
	// Seed drives the deterministic scene generators.
	Seed uint64
	// Benchmarks are Table I aliases; empty means the full suite.
	Benchmarks []string
	// Frames is the number of animation frames to simulate per run with
	// warm caches (0 or 1 = single frame). Metrics aggregate over frames.
	Frames int
}

// DefaultOptions returns the paper's operating point over the full
// benchmark suite.
func DefaultOptions() Options {
	return Options{Width: 1960, Height: 768, Seed: 1}
}

// ScaledOptions returns options at a fraction of the paper resolution —
// the quick mode used by tests and -short benchmarks.
func ScaledOptions(divisor int) Options {
	o := DefaultOptions()
	o.Width /= divisor
	o.Height /= divisor
	return o
}

// aliases resolves the benchmark list.
func (o Options) aliases() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return trace.Aliases()
}

// RunResult is one (benchmark, policy) simulation with its energy
// estimate.
type RunResult struct {
	Bench   string
	Policy  core.Policy
	Metrics *pipeline.Metrics
	Energy  energy.Breakdown
}

// RunOne simulates one benchmark under one policy. If upperBound is set,
// the machine is rewritten to the Fig. 16 single-SC bound (the policy's
// grouping is then irrelevant).
func RunOne(alias string, pol core.Policy, opt Options, upperBound bool) (*RunResult, error) {
	var mutate func(*pipeline.Config)
	if upperBound {
		mutate = func(cfg *pipeline.Config) { core.ApplyUpperBound(cfg) }
	}
	return RunOneWith(alias, pol, opt, mutate)
}

// simKey identifies one memoizable simulation: the workload (benchmark
// alias + seed + frame count) and the *effective* machine configuration
// after the policy and any ablation mutation are applied. Keying on the
// resolved Config rather than the policy name means two policies that
// configure the same machine (e.g. DTexL under its HLB-flp2 label, or an
// ablation sweep point equal to the default) share one simulation.
type simKey struct {
	Alias  string
	Seed   uint64
	Frames int
	Cfg    pipeline.Config
}

// simResult is the label-independent part of a RunResult.
type simResult struct {
	Metrics *pipeline.Metrics
	Energy  energy.Breakdown
}

// RunOneWith simulates one benchmark under a policy with an optional
// configuration mutation applied after the policy, memoizing the result
// on the effective configuration. It is the Runner-level counterpart of
// the package function RunOneWith and produces bit-identical results:
// the scene comes from the shared scene store, and single-frame runs
// reuse the memoized policy-independent front half (pipeline.
// PreparedFrame) of any earlier run with the same front configuration.
//
// Multi-frame runs take the unmemoized path beyond scene generation:
// frames after the first run their geometry against policy-warmed
// caches, so their front half is not policy-independent.
func (r *Runner) RunOneWith(alias string, pol core.Policy, mutate func(*pipeline.Config)) (*RunResult, error) {
	return r.RunOneCtx(r.baseCtx(), alias, pol, mutate)
}

// RunOneCtx is RunOneWith under a caller-supplied context — the serving
// path. ctx bounds the whole call: it is threaded into the executors
// (so a deadline or cancellation aborts a compute-bound run at the next
// watchdog poll) and into every memo layer's wait (so a cancelled
// caller stops blocking on a cell another goroutine is computing,
// without disturbing that computation). When the computing caller
// itself is cancelled, still-live waiters retry the cell rather than
// inherit the foreign context error; each retry is bounded by the
// retrier's own ctx and the Runner's per-cell RunTimeout.
func (r *Runner) RunOneCtx(reqCtx context.Context, alias string, pol core.Policy, mutate func(*pipeline.Config)) (*RunResult, error) {
	prof, err := trace.ProfileByAlias(alias)
	if err != nil {
		return nil, err
	}
	cfg := pipeline.DefaultConfig()
	cfg.Width, cfg.Height = r.Opt.Width, r.Opt.Height
	pol.Apply(&cfg)
	if mutate != nil {
		mutate(&cfg)
	}
	frames := r.Opt.Frames
	if frames < 1 {
		frames = 1
	}
	key := simKey{Alias: alias, Seed: r.Opt.Seed, Frames: frames, Cfg: cfg}
	if r.KeepGoing {
		// A configuration that already failed fails fast: cells shared by
		// several figures go NA from the cached error instead of re-running
		// (the single-flight memo drops failed entries, so without this
		// cache each figure would re-execute the doomed simulation).
		r.failMu.Lock()
		cached := r.failedSims[key]
		r.failMu.Unlock()
		if cached != nil {
			return nil, cached
		}
	}
	res, err := r.sims.do(reqCtx, key, func() (*simResult, error) {
		if r.Journal != nil {
			if sr, ok := r.Journal.lookup(key); ok {
				atomic.AddUint64(&r.completedSims, 1)
				if r.Progress != nil {
					r.Progress(fmt.Sprintf("%-4s %-18s resumed from checkpoint", alias, pol.Name))
				}
				return sr, nil
			}
		}
		if r.Store != nil {
			// L2: the shared result store. Checksummed, so a corrupt entry
			// reads as a miss and the compute below repairs it.
			if sr, ok := r.Store.lookup(key); ok {
				atomic.AddUint64(&r.completedSims, 1)
				if r.Progress != nil {
					r.Progress(fmt.Sprintf("%-4s %-18s served from shared store", alias, pol.Name))
				}
				return sr, nil
			}
		}
		ctx := reqCtx
		if r.RunTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, r.RunTimeout)
			defer cancel()
		}
		if r.Chaos.matches(alias, pol.Name) {
			switch r.Chaos.Mode {
			case ChaosPanic:
				// Deliberately panic inside the memoized body: the memo layer
				// must recover it into an error without poisoning the cache.
				panic(fmt.Sprintf("sim: injected chaos panic for %s/%s", alias, pol.Name))
			case ChaosError:
				return nil, fmt.Errorf("sim: injected chaos error for %s/%s", alias, pol.Name)
			case ChaosStall:
				// Livelock the real executor; its watchdog converts the spin
				// into a *pipeline.StallError with a genuine state dump.
				ctx = pipeline.WithChaosStall(ctx)
			case ChaosCrash:
				// Die mid-cell the way SIGKILL would: no deferred cleanup, no
				// journal/store record for the in-flight cell. The fleet chaos
				// harness uses this to prove lease reassignment recovers the
				// cell on another worker.
				fmt.Fprintf(os.Stderr, "sim: injected chaos crash for %s/%s\n", alias, pol.Name)
				os.Exit(137)
			}
		}
		t0 := time.Now()
		scenes, err := r.scenes.AnimationContext(ctx, prof, cfg.Width, cfg.Height, r.Opt.Seed, frames)
		atomic.AddInt64(&r.generateNanos, int64(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("sim: %s/%s: %w", alias, pol.Name, err)
		}
		var ms []*pipeline.Metrics
		if frames == 1 && cfg.RenderTarget == nil {
			pk := prepKey{Alias: alias, Seed: r.Opt.Seed, Front: pipeline.FrontKeyOf(cfg)}
			t1 := time.Now()
			prep, err := r.prepStoreLazy().do(ctx, pk, func() (*pipeline.PreparedFrame, error) {
				p, perr := pipeline.PrepareFrame(scenes[0], cfg)
				if perr == nil {
					// Attribute the build split inside the memo body so only
					// the worker that actually built the frame counts it.
					atomic.AddInt64(&r.geometryNanos, int64(p.GeometryTime))
					atomic.AddInt64(&r.coverageNanos, int64(p.CoverageTime))
				}
				return p, perr
			})
			atomic.AddInt64(&r.prepareNanos, int64(time.Since(t1)))
			if err != nil {
				return nil, fmt.Errorf("sim: %s/%s: %w", alias, pol.Name, err)
			}
			t2 := time.Now()
			m, err := pipeline.RunPreparedContext(ctx, prep, cfg)
			atomic.AddInt64(&r.rasterNanos, int64(time.Since(t2)))
			if err != nil {
				return nil, fmt.Errorf("sim: %s/%s: %w", alias, pol.Name, err)
			}
			ms = []*pipeline.Metrics{m}
		} else {
			t2 := time.Now()
			ms, err = pipeline.RunFramesContext(ctx, scenes, cfg)
			atomic.AddInt64(&r.rasterNanos, int64(time.Since(t2)))
			if err != nil {
				return nil, fmt.Errorf("sim: %s/%s: %w", alias, pol.Name, err)
			}
		}
		m := aggregateMetrics(ms)
		sr := &simResult{Metrics: m, Energy: energy.DefaultModel().Estimate(m.Events)}
		if r.Journal != nil {
			// Best-effort: a failed append only costs a deterministic
			// recompute on resume, so warn and continue.
			if jerr := r.Journal.record(key, sr); jerr != nil && r.Progress != nil {
				r.Progress(fmt.Sprintf("warning: %v", jerr))
			}
		}
		if r.Store != nil {
			// Equally best-effort: a missed store record costs another
			// worker a recompute, never correctness.
			if serr := r.Store.record(key, sr); serr != nil && r.Progress != nil {
				r.Progress(fmt.Sprintf("warning: %v", serr))
			}
		}
		atomic.AddUint64(&r.completedSims, 1)
		if r.Progress != nil {
			r.Progress(fmt.Sprintf("%-4s %-18s %8.1f fps  %9d L2 accesses", alias, pol.Name, m.FPS, m.L2Accesses()))
		}
		return sr, nil
	})
	if err != nil {
		if r.KeepGoing {
			r.failMu.Lock()
			if r.failedSims == nil {
				r.failedSims = make(map[simKey]error)
			}
			if r.failedSims[key] == nil {
				r.failedSims[key] = err
			}
			r.failMu.Unlock()
		}
		return nil, err
	}
	return &RunResult{Bench: alias, Policy: pol, Metrics: res.Metrics, Energy: res.Energy}, nil
}

// scene returns the benchmark's frame-0 scene from the shared store
// (generating the animation on first use), for consumers that need the
// scene itself rather than a simulation — Table 1 and the IMR baseline.
func (r *Runner) scene(alias string) (*trace.Scene, error) {
	prof, err := trace.ProfileByAlias(alias)
	if err != nil {
		return nil, err
	}
	frames := r.Opt.Frames
	if frames < 1 {
		frames = 1
	}
	t0 := time.Now()
	scenes, err := r.scenes.Animation(prof, r.Opt.Width, r.Opt.Height, r.Opt.Seed, frames)
	atomic.AddInt64(&r.generateNanos, int64(time.Since(t0)))
	if err != nil {
		return nil, err
	}
	return scenes[0], nil
}

// Timing is the Runner's wall-clock split across the memoized phases,
// plus the hit/miss counters of each memo layer. Durations are summed
// over the pool's workers, so with parallelism they can exceed elapsed
// time.
type Timing struct {
	// Generate is time spent generating (or waiting on) scenes.
	Generate time.Duration
	// Prepare is time spent building (or waiting on) policy-independent
	// front halves: geometry, binning, coverage.
	Prepare time.Duration
	// Geometry and Coverage split Prepare's actual build time between the
	// geometry+binning phase and the per-tile coverage phase (excluding
	// time spent waiting on another worker's in-flight build).
	Geometry time.Duration
	Coverage time.Duration
	// Raster is time spent in per-policy raster-phase simulation.
	Raster time.Duration

	SceneHits, SceneMisses uint64
	PrepHits, PrepMisses   uint64
	SimHits, SimMisses     uint64
}

// Timing snapshots the Runner's counters. Safe to call concurrently
// with runs.
func (r *Runner) Timing() Timing {
	t := Timing{
		Generate: time.Duration(atomic.LoadInt64(&r.generateNanos)),
		Prepare:  time.Duration(atomic.LoadInt64(&r.prepareNanos)),
		Geometry: time.Duration(atomic.LoadInt64(&r.geometryNanos)),
		Coverage: time.Duration(atomic.LoadInt64(&r.coverageNanos)),
		Raster:   time.Duration(atomic.LoadInt64(&r.rasterNanos)),
	}
	t.SceneHits, t.SceneMisses = r.scenes.Stats()
	t.SimHits, t.SimMisses = r.sims.stats()
	t.PrepHits, t.PrepMisses = r.prepStoreLazy().stats()
	return t
}

// String renders the timing summary as the -timing flag prints it: one
// line per phase (scene generation, geometry+binning, tile coverage,
// raster simulation) so perf work can attribute wins without a profiler.
func (t Timing) String() string {
	return fmt.Sprintf(
		"phase wall time: scene generation %v, geometry+binning %v, tile coverage %v, raster %v\n"+
			"memo hits/misses: scenes %d/%d, preparations %d/%d, simulations %d/%d",
		t.Generate.Round(time.Millisecond),
		t.Geometry.Round(time.Millisecond),
		t.Coverage.Round(time.Millisecond),
		t.Raster.Round(time.Millisecond),
		t.SceneHits, t.SceneMisses,
		t.PrepHits, t.PrepMisses,
		t.SimHits, t.SimMisses)
}

// aggregateMetrics folds per-frame metrics into one whole-animation
// record: counts and cycles sum, per-tile imbalance samples concatenate,
// FPS becomes frames per second over the whole run.
func aggregateMetrics(ms []*pipeline.Metrics) *pipeline.Metrics {
	if len(ms) == 1 {
		return ms[0]
	}
	agg := &pipeline.Metrics{Config: ms[0].Config}
	agg.PerSCQuads = make([]uint64, len(ms[0].PerSCQuads))
	agg.PerSCBusy = make([]int64, len(ms[0].PerSCBusy))
	agg.SCBreakdown = make([]pipeline.SCBreakdown, len(ms[0].SCBreakdown))
	for _, m := range ms {
		agg.Cycles += m.Cycles
		agg.GeometryCycles += m.GeometryCycles
		agg.RasterCycles += m.RasterCycles
		agg.Events.ALUInstructions += m.Events.ALUInstructions
		agg.Events.TextureSamples += m.Events.TextureSamples
		agg.Events.L1TexAccesses += m.Events.L1TexAccesses
		agg.Events.L2Accesses += m.Events.L2Accesses
		agg.Events.DRAMAccesses += m.Events.DRAMAccesses
		agg.Events.VertexFetches += m.Events.VertexFetches
		agg.Events.QuadsShaded += m.Events.QuadsShaded
		agg.Events.QuadsCulled += m.Events.QuadsCulled
		agg.Events.FlushedLines += m.Events.FlushedLines
		agg.Events.SCBusyCycles += m.Events.SCBusyCycles
		agg.Events.SCIdleCycles += m.Events.SCIdleCycles
		agg.Events.FrameCycles += m.Events.FrameCycles
		for i := range agg.PerSCQuads {
			agg.PerSCQuads[i] += m.PerSCQuads[i]
			agg.PerSCBusy[i] += m.PerSCBusy[i]
		}
		agg.TileTimeDeviation = append(agg.TileTimeDeviation, m.TileTimeDeviation...)
		agg.TileQuadDeviation = append(agg.TileQuadDeviation, m.TileQuadDeviation...)
		// Per-SC stall causes sum across frames (conservation then holds
		// against the summed RasterCycles); interval snapshots concatenate
		// in frame order, each frame's Cycle axis restarting at zero.
		for i := range agg.SCBreakdown {
			agg.SCBreakdown[i].Add(m.SCBreakdown[i])
		}
		agg.Intervals = append(agg.Intervals, m.Intervals...)
		agg.IntervalsDropped += m.IntervalsDropped
		agg.L1Tex.Accesses += m.L1Tex.Accesses
		agg.L1Tex.Hits += m.L1Tex.Hits
		agg.L1Tex.Misses += m.L1Tex.Misses
		agg.L1Tex.Evictions += m.L1Tex.Evictions
		agg.L2.Accesses += m.L2.Accesses
		agg.L2.Hits += m.L2.Hits
		agg.L2.Misses += m.L2.Misses
		agg.L2.Evictions += m.L2.Evictions
	}
	agg.FPS = ms[0].Config.ClockHz * float64(len(ms)) / float64(agg.Cycles)
	return agg
}

// RunScene simulates one externally supplied scene (e.g. loaded from a
// scene trace) under a policy; the machine resolution follows the scene.
func RunScene(scene *trace.Scene, pol core.Policy, mutate func(*pipeline.Config)) (*RunResult, error) {
	cfg := pipeline.DefaultConfig()
	cfg.Width, cfg.Height = scene.Width, scene.Height
	pol.Apply(&cfg)
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := pipeline.Run(scene, cfg)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Bench:   "scene",
		Policy:  pol,
		Metrics: m,
		Energy:  energy.DefaultModel().Estimate(m.Events),
	}, nil
}
