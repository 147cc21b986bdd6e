// Package sim drives complete experiments: it wires benchmarks (trace),
// policies (core), the pipeline and the energy model together, and
// implements one function per table and figure of the paper's evaluation
// (see experiments.go and DESIGN.md's experiment index).
//
// Every simulation an experiment reads is a CellSpec, and each
// experiment declares its cells as data: RunExperiment warms that plan
// (Warm), then renders by reading memoized results only.
//
// Runs are memoized at three layers (scenes, prepared frames,
// simulations), each a single-flight memo so concurrent workers never
// duplicate a computation, and each cancellation-safe: a waiter whose
// context ends detaches without poisoning the shared entry. Below the
// simulation memo an optional content-addressed Store persists results
// across processes and restarts.
// Runner.Parallelism bounds the one worker pool Warm runs whole
// simulations on; each simulation is itself serial and deterministic,
// and failures and errors come back in plan order, so output does not
// depend on the setting (DESIGN.md §11).
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
// alias + seed + frame count), the machine kind and the *effective*
// machine configuration after the policy and any ablation override are
// applied. Keying on the resolved Config rather than the policy name
// means two policies that configure the same machine (e.g. DTexL under
// its HLB-flp2 label, or an ablation sweep point equal to the default)
// share one simulation. IMR is omitted from the key bytes when false,
// so tile-based keys read as they always have.
type simKey struct {
	Alias  string
	Seed   uint64
	Frames int
	Cfg    pipeline.Config
	IMR    bool `json:",omitempty"`
}

// newSimKey resolves the tile-based simulation of alias under pol.
func newSimKey(opt Options, alias string, pol core.Policy) simKey {
	cfg := pipeline.DefaultConfig()
	cfg.Width, cfg.Height = opt.Width, opt.Height
	pol.Apply(&cfg)
	return simKey{Alias: alias, Seed: opt.Seed, Frames: max(opt.Frames, 1), Cfg: cfg}
}

// prepKey returns the key of the prepared frame the simulation reads,
// and false when it reads none: multi-frame and IMR runs build their
// front half live.
func (k simKey) prepKey() (prepKey, bool) {
	pk := prepKey{Alias: k.Alias, Seed: k.Seed, Front: pipeline.FrontKeyOf(k.Cfg)}
	return pk, k.Frames == 1 && !k.IMR && k.Cfg.RenderTarget == nil
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
// the scene comes from the scene memo, and single-frame runs
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
	key := newSimKey(r.Opt, alias, pol)
	if mutate != nil {
		mutate(&key.Cfg)
	}
	return r.simulate(reqCtx, key, pol, false)
}

// simulate returns the memoized result of key, run under pol's label:
// from the memo, the store, or a fresh run. planned marks a cell Warm
// queued (see prepStore.need).
func (r *Runner) simulate(reqCtx context.Context, key simKey, pol core.Policy, planned bool) (*RunResult, error) {
	alias := key.Alias
	prof, err := trace.ProfileByAlias(alias)
	if err != nil {
		return nil, err
	}
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
		if r.Store != nil {
			// L2: the result store. Checksummed, so a corrupt entry reads
			// as a miss and the compute below repairs it.
			if sr, ok := r.Store.lookup(key, true); ok {
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
				// store record for the in-flight cell. The fleet chaos
				// harness uses this to prove lease reassignment recovers the
				// cell on another worker.
				fmt.Fprintf(os.Stderr, "sim: injected chaos crash for %s/%s\n", alias, pol.Name)
				os.Exit(137)
			}
		}
		scenes, err := r.animation(ctx, prof, key.Cfg.Width, key.Cfg.Height, key.Seed, key.Frames)
		if err != nil {
			return nil, fmt.Errorf("sim: %s/%s: %w", alias, pol.Name, err)
		}
		m, err := r.compute(ctx, key, scenes, planned)
		if err != nil {
			return nil, fmt.Errorf("sim: %s/%s: %w", alias, pol.Name, err)
		}
		sr := &simResult{Metrics: m, Energy: energy.DefaultModel().Estimate(m.Events)}
		if r.Store != nil {
			// Best-effort: a missed store record costs a resumed run or
			// another worker a recompute, never correctness.
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

// compute runs key's simulation on its scenes: the immediate-mode
// machine, the live multi-frame path, or one frame on its memoized
// preparation.
func (r *Runner) compute(ctx context.Context, key simKey, scenes []*trace.Scene, planned bool) (*pipeline.Metrics, error) {
	pk, prepared := key.prepKey()
	if !prepared {
		t0 := time.Now()
		defer func() { atomic.AddInt64(&r.rasterNanos, int64(time.Since(t0))) }()
		if key.IMR {
			return pipeline.RunIMRContext(ctx, scenes[0], key.Cfg)
		}
		ms, err := pipeline.RunFramesContext(ctx, scenes, key.Cfg)
		if err != nil {
			return nil, err
		}
		return aggregateMetrics(ms), nil
	}
	t1 := time.Now()
	prep, err := r.prepStoreLazy().do(ctx, pk, planned, func() (*pipeline.PreparedFrame, error) {
		p, perr := pipeline.PrepareFrame(scenes[0], key.Cfg)
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
		return nil, err
	}
	t2 := time.Now()
	defer func() { atomic.AddInt64(&r.rasterNanos, int64(time.Since(t2))) }()
	return pipeline.RunPreparedContext(ctx, prep, key.Cfg)
}

// sceneKey identifies one generated animation: generation is a pure
// function of these values, so equal keys mean identical scenes.
type sceneKey struct {
	Alias         string
	Width, Height int
	Seed          uint64
	Frames        int
}

// animation returns p's memoized animation, generating it on first use.
// Scenes are read-only, so every policy shares one slice.
func (r *Runner) animation(ctx context.Context, p trace.Profile, width, height int, seed uint64, frames int) ([]*trace.Scene, error) {
	t0 := time.Now()
	defer func() { atomic.AddInt64(&r.generateNanos, int64(time.Since(t0))) }()
	return r.scenes.do(ctx, sceneKey{p.Alias, width, height, seed, frames}, func() ([]*trace.Scene, error) {
		return trace.GenerateAnimation(p, width, height, seed, frames), nil
	})
}

// scene returns the benchmark's frame-0 scene from the scene memo
// (generating the animation on first use), for Table 1, which needs the
// scene itself rather than a simulation.
func (r *Runner) scene(alias string) (*trace.Scene, error) {
	prof, err := trace.ProfileByAlias(alias)
	if err != nil {
		return nil, err
	}
	scenes, err := r.animation(context.Background(), prof, r.Opt.Width, r.Opt.Height, r.Opt.Seed, max(r.Opt.Frames, 1))
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

	// PeakPrepared and PeakPreparedBytes are the most prepared frames,
	// and their bytes by PreparedFrame.SizeBytes, held at once.
	PeakPrepared      int
	PeakPreparedBytes int64
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
	t.SceneHits, t.SceneMisses = r.scenes.stats()
	t.SimHits, t.SimMisses = r.sims.stats()
	t.PrepHits, t.PrepMisses, t.PeakPrepared, t.PeakPreparedBytes = r.prepStoreLazy().stats()
	return t
}

// String renders the timing summary as the -timing flag prints it: one
// line per phase (scene generation, geometry+binning, tile coverage,
// raster simulation) so perf work can attribute wins without a profiler,
// then the memo counters and the prepared frames' residency peak.
func (t Timing) String() string {
	return fmt.Sprintf(
		"phase wall time: scene generation %v, geometry+binning %v, tile coverage %v, raster %v\n"+
			"memo hits/misses: scenes %d/%d, preparations %d/%d, simulations %d/%d\n"+
			"prepared frames held at once: peak %d (%.1f MiB)",
		t.Generate.Round(time.Millisecond),
		t.Geometry.Round(time.Millisecond),
		t.Coverage.Round(time.Millisecond),
		t.Raster.Round(time.Millisecond),
		t.SceneHits, t.SceneMisses,
		t.PrepHits, t.PrepMisses,
		t.SimHits, t.SimMisses,
		t.PeakPrepared, float64(t.PeakPreparedBytes)/(1<<20))
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
