// Command dtexlbench regenerates the paper's tables and figures, plus
// the ablations beyond the paper. Each experiment prints the same
// rows/series the paper reports (see DESIGN.md's experiment index and
// EXPERIMENTS.md for paper-vs-measured).
//
// Usage:
//
//	dtexlbench -exp fig16                 # one figure at paper resolution
//	dtexlbench -exp all -scale 2 -par 0   # everything, half scale, parallel
//	dtexlbench -exp fig17 -benchmarks TRu,GTr -v
//	dtexlbench -exp abl-nuca -csv         # ablation, CSV output
//	dtexlbench -exp fig16 -svg plots/     # also emit an SVG figure
//	dtexlbench -exp all -store ckpt/      # crash-safe: resumes on restart
//	dtexlbench -exp all -keep-going       # render NA cells, don't abort
//	dtexlbench -exp all -timeout 30m -cell-timeout 5m -keep-going
//	                                      # bounded run: hung cells go NA,
//	                                      # the whole run never exceeds 30m
//
// Exit codes: 0 = every cell simulated; 1 = fatal error (bad flags, or a
// simulation failed without -keep-going); 2 = partial results (-keep-going
// rendered at least one NA cell alongside completed ones).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"dtexl/internal/core"
	"dtexl/internal/pipeline"
	"dtexl/internal/pipeline/traceexport"
	"dtexl/internal/sim"
	"dtexl/internal/trace"
)

// Exit-code contract (see DESIGN.md "Failure model & degradation").
const (
	exitOK      = 0
	exitFatal   = 1
	exitPartial = 2
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp      = flag.String("exp", "all", "experiment id (fig1, fig2, fig11-fig18, tab1, tab2, abl-*, bg-imr) or 'all'")
		scale    = flag.Int("scale", 1, "divide the Table II resolution by this factor (1 = full 1960x768)")
		benches  = flag.String("benchmarks", "", "comma-separated Table I aliases (default: full suite)")
		seed     = flag.Uint64("seed", 1, "scene generator seed")
		frames   = flag.Int("frames", 1, "animation frames per simulation (warm caches)")
		verbose  = flag.Bool("v", false, "print per-simulation progress")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
		par      = flag.Int("par", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		svgDir   = flag.String("svg", "", "also write each experiment as <dir>/<id>.svg")
		timing   = flag.Bool("timing", false, "print phase wall time, memo hit counts and the prepared-frame residency peak to stderr on exit")
		keepGo   = flag.Bool("keep-going", false, "on a failed simulation, mark its cells NA and continue (exit 2 on partial results)")
		timeout  = flag.Duration("timeout", 0, "whole-run wall-clock budget (0 = none); on expiry in-flight cells are cancelled, e.g. 30m")
		cellTO   = flag.Duration("cell-timeout", 0, "per-simulation wall-clock budget (0 = none); with -keep-going a hung cell renders NA instead of aborting the run, e.g. 5m")
		storeDir = flag.String("store", "", "record completed simulations in this result store directory and serve them from it on a rerun")
		chaosStr = flag.String("chaos", "", "fault injection spec bench/policy/mode (mode: panic, error, stall; testing only)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (post-run, after GC) to this file")
		mtxProf  = flag.String("mutexprofile", "", "write a pprof mutex-contention profile (post-run) to this file; samples every contended lock")
		blkProf  = flag.String("blockprofile", "", "write a pprof goroutine-blocking profile (post-run) to this file; samples every blocking event")
		traceOut = flag.String("trace", "", "write a Chrome/Perfetto trace of one instrumented run to this file and exit (uses the first benchmark of -benchmarks)")
		tracePol = flag.String("trace-policy", "baseline", "policy for the -trace run (baseline, baseline-decoupled, DTexL, ...)")
		sample   = flag.Int64("sample", 4096, "interval-sampling period in cycles for the -trace run (Config.SampleEvery; 0 disables counter tracks)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtexlbench:", err)
			return exitFatal
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dtexlbench:", err)
			return exitFatal
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dtexlbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dtexlbench:", err)
			}
		}()
	}
	// Contention profiles for the concurrency around the serial
	// simulations — the Runner's worker pool and the memo single-flights
	// (DESIGN.md §11.1): -mutexprofile shows where pool workers fight
	// over locks, -blockprofile where they sit waiting on a shared
	// entry. Rate 1 records every event — fine for a profiling run, too
	// slow to leave on by default.
	for _, p := range []struct {
		path, name string
		enable     func()
	}{
		{*mtxProf, "mutex", func() { runtime.SetMutexProfileFraction(1) }},
		{*blkProf, "block", func() { runtime.SetBlockProfileRate(1) }},
	} {
		if p.path == "" {
			continue
		}
		p.enable()
		path, name := p.path, p.name
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dtexlbench:", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "dtexlbench:", err)
			}
		}()
	}

	if *scale < 1 {
		fmt.Fprintln(os.Stderr, "dtexlbench: -scale must be >= 1")
		return exitFatal
	}
	opt := sim.ScaledOptions(*scale)
	opt.Seed = *seed
	opt.Frames = *frames
	if *benches != "" {
		opt.Benchmarks = strings.Split(*benches, ",")
	}

	// SIGINT/SIGTERM cancel in-flight simulations; with -store the store
	// already holds every completed cell, so a rerun resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// -timeout bounds the whole run under the same cancellation path as a
	// signal; -cell-timeout below bounds each simulation individually.
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	r := sim.NewRunner(opt)
	r.CSV = *csv
	r.Ctx = ctx
	r.Parallelism = *par
	r.KeepGoing = *keepGo
	r.RunTimeout = *cellTO
	if *verbose {
		r.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	if *chaosStr != "" {
		chaos, err := sim.ParseChaos(*chaosStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtexlbench:", err)
			return exitFatal
		}
		r.Chaos = chaos
		fmt.Fprintln(os.Stderr, "dtexlbench: fault injection active:", *chaosStr)
	}
	if *storeDir != "" {
		st, err := sim.OpenStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtexlbench:", err)
			return exitFatal
		}
		r.Store = st
		if n, _ := st.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "dtexlbench: store %s holds %d result(s)\n", *storeDir, n)
		}
	}

	if *traceOut != "" {
		if err := runTrace(r, opt, *traceOut, *tracePol, *sample); err != nil {
			return fatal(err)
		}
		return exitOK
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = sim.ExperimentIDs()
		// Pre-run the figure simulations in parallel; the experiment
		// renderers below then assemble tables from the cache.
		if err := r.WarmAll(); err != nil {
			return fatal(err)
		}
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Println()
		}
		if err := r.RunExperiment(id, os.Stdout); err != nil {
			return fatal(err)
		}
		if *svgDir != "" && id != "tab1" && id != "tab2" {
			if err := writeSVG(r, *svgDir, id); err != nil {
				return fatal(err)
			}
		}
	}
	if *timing {
		fmt.Fprintln(os.Stderr, r.Timing())
	}

	if fails := r.Failures(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "dtexlbench: %d cell(s) failed and were rendered NA:\n", len(fails))
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "  %s/%s: %v\n", f.Bench, f.Series, f.Err)
		}
		if r.CompletedRuns() > 0 {
			return exitPartial
		}
		return exitFatal
	}
	return exitOK
}

// fatal reports a run-aborting error, expanding stall diagnostics so a
// hung-machine report carries the executor state instead of one line.
func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "dtexlbench:", err)
	var se *pipeline.StallError
	if errors.As(err, &se) {
		fmt.Fprintln(os.Stderr, se.Dump())
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dtexlbench: interrupted; rerun with the same -store dir to resume")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "dtexlbench: -timeout budget exhausted; rerun with the same -store dir to resume")
	}
	return exitFatal
}

// runTrace captures one instrumented simulation — interval sampling on,
// and the coupled tile timeline when the policy is coupled — and writes
// it as Chrome/Perfetto trace_event JSON (load in ui.perfetto.dev; one
// trace microsecond = one simulated cycle).
func runTrace(r *sim.Runner, opt sim.Options, out, polName string, sample int64) error {
	pol, err := core.PolicyByName(polName)
	if err != nil {
		return err
	}
	aliases := trace.Aliases()
	if len(opt.Benchmarks) > 0 {
		aliases = opt.Benchmarks
	}
	alias := aliases[0]
	res, err := r.RunOneWith(alias, pol, func(cfg *pipeline.Config) {
		cfg.SampleEvery = sample
		if !cfg.Decoupled {
			cfg.CollectTimeline = true // tile + barrier spans need the timeline
		}
	})
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := traceexport.Write(f, res.Metrics); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dtexlbench: wrote trace of %s under %s to %s (%d tiles, %d interval samples)\n",
		alias, pol.Name, out, len(res.Metrics.Timeline), len(res.Metrics.Intervals))
	return nil
}

// writeSVG renders one experiment's figure into dir/<id>.svg. Simulation
// results are memoized in the Runner, so this reuses the runs the text
// rendering just did.
func writeSVG(r *sim.Runner, dir, id string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	return r.RenderSVG(id, f)
}
