package main

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"time"

	"dtexl/internal/sim"
)

const (
	suiteScale = 4
	// suiteSetupReps is how many fresh set-ups precede each sweep, each
	// one a setup_s sample. A set-up lasts about a third of a
	// millisecond and follows the host's speed of the moment: over ten
	// seeds, 20 per sweep gave setup_s a spread of 0.32 and 200 gave
	// 0.14; 1,000 did no better.
	suiteSetupReps = 200
)

// oracleIDs are the tables a store-free serial Runner re-renders as the
// independent check, for seeds without a committed digest and for every
// fleet sweep.
var oracleIDs = []string{"fig11", "fig16", "fig17"}

func scaledOptions(scale int, seed uint64) sim.Options {
	opt := sim.ScaledOptions(scale)
	opt.Seed = seed
	return opt
}

// suiteSetup builds a fresh Runner and generates its seeded scenes: the
// tab1 render reads every benchmark's frame-0 scene and nothing else.
func suiteSetup(ctx context.Context, opt sim.Options) (*sim.Runner, time.Duration, error) {
	t0 := time.Now()
	r := sim.NewRunner(opt)
	r.Ctx = ctx
	r.Parallelism = workers
	if err := r.RunExperiment("tab1", io.Discard); err != nil {
		return nil, 0, err
	}
	return r, time.Since(t0), nil
}

// renderAll does what `dtexlbench -exp all` does — WarmAll, then every
// experiment in order with a blank line between tables — and returns
// the exact bytes it prints, the time its calls took, and the Runner's
// Timing between the two phases. Each call into the Runner is a span
// under parent; pause runs between calls, outside the timed parts.
func renderAll(r *sim.Runner, rec *recorder, parent int64, pause func()) ([]byte, time.Duration, sim.Timing, error) {
	_, end := rec.begin("sim.WarmAll", parent, parent)
	start := time.Now()
	err := r.WarmAll()
	took := time.Since(start)
	end()
	warmed := r.Timing()
	if err != nil {
		return nil, took, warmed, err
	}
	var buf bytes.Buffer
	for i, id := range sim.ExperimentIDs() {
		if i > 0 {
			buf.WriteByte('\n')
		}
		pause()
		_, end := rec.begin("sim.RunExperiment", parent, parent)
		start := time.Now()
		err := r.RunExperiment(id, &buf)
		took += time.Since(start)
		end()
		if err != nil {
			return nil, took, warmed, err
		}
	}
	return buf.Bytes(), took, warmed, nil
}

// renderIDs renders the given experiments the way the fleet coordinator
// does: a blank line between tables.
func renderIDs(r *sim.Runner, ids []string) ([]byte, error) {
	var buf bytes.Buffer
	for i, id := range ids {
		if i > 0 {
			buf.WriteByte('\n')
		}
		if err := r.RunExperiment(id, &buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// runSuite is suite-sweep: the researcher's path, a fresh Runner per
// sweep running the whole evaluation.
func runSuite(ctx context.Context, b *run) error {
	opt := scaledOptions(b.cfg.scaleOr(suiteScale), b.cfg.seed)
	var (
		digests []string
		first   []byte // the first sweep's tables, for the oracle
	)
	err := b.rounds(func(traced bool) error {
		var r *sim.Runner
		for i := 0; i < suiteSetupReps; i++ {
			var d time.Duration
			var err error
			if r, d, err = suiteSetup(ctx, opt); err != nil {
				return err
			}
			b.setup(d)
		}
		runtime.GC() // the throwaway Runners' garbage, outside the sweep
		rec := b.recOf(traced)
		// A sweep lasts about ten seconds, long enough for the host's
		// speed to change, so untraced sweeps read it between
		// experiments. Traced sweeps do not: their root span stays
		// exactly the sweep.
		pause := b.probe
		if traced {
			pause = func() {}
		}
		root, endRoot := rec.begin("bench.sweep", 0, 0)
		t0 := r.Timing()
		m0 := startMem()
		out, d, warmed, err := renderAll(r, rec, root, pause)
		endRoot()
		if err != nil {
			return err
		}
		if traced {
			b.endMem(m0)
			if err := suiteLayers(ctx, b, r, t0, warmed, rec.snapshot(), root); err != nil {
				return err
			}
		}
		b.done(1, d, d, []time.Duration{d})
		if b.cfg.corrupt {
			out = bytes.Replace(out, []byte("== fig17:"), []byte("== fig17 "), 1)
		}
		if first == nil {
			first = out
		}
		digests = append(digests, tableDigest(out))
		return nil
	})
	if err != nil {
		return err
	}
	b.attempted = len(digests)

	// Correct output: the committed digest where one exists; otherwise
	// every sweep equal to the first, and the first agreeing with a
	// store-free serial Runner on the oracle tables.
	want, err := suiteWant(ctx, b, opt, first)
	if err != nil {
		return err
	}
	for _, d := range digests {
		if d != want {
			b.failed++
		}
	}
	return nil
}

// suiteWant returns the digest every sweep must match.
func suiteWant(ctx context.Context, b *run, opt sim.Options, first []byte) (string, error) {
	d, err := loadDigests()
	if err != nil {
		return "", err
	}
	if want, ok := d.Suite[digestKey(b.cfg.scaleOr(suiteScale), b.cfg.seed)]; ok {
		return want, nil
	}
	r := sim.NewRunner(opt)
	r.Ctx = ctx
	ref, err := renderIDs(r, oracleIDs)
	if err != nil {
		return "", err
	}
	want, got := tablesByID(ref), tablesByID(first)
	for _, id := range oracleIDs {
		if w, ok := want[id]; !ok || !bytes.Equal(got[id], w) {
			return "oracle table " + id + " differs", nil
		}
	}
	return tableDigest(first), nil
}

// tablesByID splits a render (tables separated by a blank line) into
// its tables, keyed by experiment ID.
func tablesByID(render []byte) map[string][]byte {
	out := map[string][]byte{}
	for _, t := range bytes.Split(bytes.TrimRight(render, "\n"), []byte("\n\n")) {
		if id, _, ok := bytes.Cut(bytes.TrimPrefix(t, []byte("== ")), []byte(":")); ok {
			out[string(id)] = t
		}
	}
	return out
}

// suiteLayers books one traced sweep's per-layer metrics from the
// Runner's Timing deltas, the spans under root, and the simulated counts
// of the suite cells. Values are means over traced sweeps.
func suiteLayers(ctx context.Context, b *run, r *sim.Runner, t0, warmed sim.Timing, spans []span, root int64) error {
	t := r.Timing()
	mean := b.mean

	var warm, render time.Duration
	for _, s := range spans {
		if s.Parent != root {
			continue
		}
		switch s.Name {
		case "sim.WarmAll":
			warm += time.Duration(s.dur())
		case "sim.RunExperiment":
			render += time.Duration(s.dur())
		}
	}
	// WarmAll simulates exactly the suite cells, so its raster time over
	// the quads of those distinct simulations is host time per quad.
	tot, quads, err := suiteTotals(ctx, r)
	if err != nil {
		return err
	}
	tot.put(b.layer)
	if quads > 0 {
		mean("pipeline.raster_ns_per_quad", float64(warmed.Raster-t0.Raster)/float64(quads))
	}
	mean("pipeline.raster_s", (t.Raster - t0.Raster).Seconds())
	mean("pipeline.coverage_s", (t.Coverage - t0.Coverage).Seconds())
	mean("pipeline.geometry_s", (t.Geometry - t0.Geometry).Seconds())
	// Not a delta: the set-up's tab1 render generated every scene the
	// sweep reads, so this is the Runner's whole generation time, which
	// setup_s carries.
	mean("trace.generate_s", t.Generate.Seconds())
	mean("sim.warm_s", warm.Seconds())
	mean("sim.render_s", render.Seconds())
	mean("sim.render_sims", float64(t.SimMisses-warmed.SimMisses))
	wait := (t.Prepare - t0.Prepare) - (t.Geometry - t0.Geometry) - (t.Coverage - t0.Coverage)
	mean("sim.prep_wait_s", wait.Seconds())
	hits, misses := t.SimHits-t0.SimHits, t.SimMisses-t0.SimMisses
	mean("sim.memo_hit_ratio", float64(hits)/float64(hits+misses))
	return nil
}
