// Command perfbench is the repository's end-to-end benchmark. It drives
// the public entry points in one process — sim.Runner, serve.Server with
// serve/client, fleet.Coordinator with fleet.Worker — over four seeded
// workloads, checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload suite-sweep --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload serve-hot --seed 3 --seconds 30 --trace 1
//	bash perfbench/run.sh -steady 10 -seconds 30   # spread of every metric
//
// --trace 0 reports the end-to-end metrics, every time at reference
// speed (ref.go); --trace 1 alternates untraced and traced rounds and
// reports the per-layer metrics, the share of end-to-end time the layer
// spans explain, and the tracing overhead. README.md in this directory
// documents the workloads, the metrics and what each layer metric
// should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dtexl/internal/stats"
)

// workers pins the load to the 2-vCPU measurement box: GOMAXPROCS, Warm
// workers, serving clients and fleet workers are all exactly two.
const workers = 2

// config is one invocation of a workload.
type config struct {
	workload  string
	seed      uint64
	window    time.Duration
	traced    bool
	scale     int    // 0 = the workload's default scale; tests shrink it
	storeRoot string // parent of the fleet-sweep stores
	spansOut  string // traced run: where the spans are written
	// corrupt alters every observed output before it is checked; the
	// self-tests use it to prove the checks catch a wrong output.
	corrupt bool
}

func (c config) scaleOr(def int) int {
	if c.scale > 0 {
		return c.scale
	}
	return def
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named pairs a metric with its unit, in reporting order.
type named struct{ name, unit string }

// endToEnd is the untraced run's metric set (BENCHMARK.json end_to_end).
var endToEnd = []named{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer is the traced run's metric set (BENCHMARK.json per_layer).
// A workload that does not reach a layer reports 0 for its metrics.
var perLayer = []named{
	{"pipeline.raster_s", "s"},
	{"pipeline.raster_ns_per_quad", "ns"},
	{"pipeline.coverage_s", "s"},
	{"pipeline.geometry_s", "s"},
	{"trace.generate_s", "s"},
	{"sim.warm_s", "s"},
	{"sim.render_s", "s"},
	{"sim.render_sims", "count"},
	{"sim.prep_wait_s", "s"},
	{"sim.memo_hit_ratio", "ratio"},
	{"sim.store_entries", "count"},
	{"serve.handler_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"serve.client_retries", "count"},
	{"serve.sims_computed", "count"},
	{"fleet.lease_rtt_ms", "ms"},
	{"fleet.complete_rtt_ms", "ms"},
	{"fleet.heartbeat_rtt_ms", "ms"},
	{"fleet.compute_ms", "ms"},
	{"fleet.rpcs_per_cell", "count"},
	{"fleet.idle_leases", "count"},
	{"fleet.busy_ratio", "ratio"},
	{"fleet.reassigned", "count"},
	{"fleet.stolen", "count"},
	{"fleet.late_results", "count"},
	{"pipeline.cycles", "count"},
	{"pipeline.quads_shaded", "count"},
	{"cache.l1tex_hit_rate", "ratio"},
	{"cache.l2_accesses", "count"},
	{"dram.accesses", "count"},
	{"bench.alloc_bytes_per_op", "B"},
	{"bench.gc_cycles", "count"},
	{"bench.failed_ratio", "ratio"},
	{"bench.explained_ratio", "ratio"},
	{"bench.tracing_overhead_ratio", "ratio"},
	{"bench.ref_ms", "ms"},
}

// workloads maps each workload name to the function that runs it;
// README.md says why each was chosen.
var workloads = map[string]func(context.Context, *run) error{
	"suite-sweep": runSuite,
	"serve-cold":  runServeCold,
	"serve-hot":   runServeHot,
	"fleet-sweep": runFleet,
}

var workloadOrder = []string{"suite-sweep", "serve-cold", "serve-hot", "fleet-sweep"}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload: "+strings.Join(workloadOrder, ", "))
		seed      = fs.Uint64("seed", 1, "seed of the scenes and request orders")
		seconds   = fs.Float64("seconds", 30, "measuring window in seconds")
		traceFlag = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		storeRoot = fs.String("store-root", ".bench_build/fleet-stores", "directory under which fleet-sweep creates its shared stores")
		spansOut  = fs.String("spans", "", "traced run: span file (default .bench_build/spans-<workload>-<seed>.json)")
		steady    = fs.Int("steady", 0, "run every workload this many times in alternation, in fresh processes, and print each metric's median and quartiles")
		record    = fs.String("record-digests", "", "print the digest file for these comma-separated seeds and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(workers)

	switch {
	case *steady > 0:
		return steadyMain(*steady, *seconds, *traceFlag == 1, stdout, stderr)
	case *record != "":
		var seeds []uint64
		for _, s := range strings.Split(*record, ",") {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				fmt.Fprintln(stderr, "perfbench: -record-digests:", err)
				return 2
			}
			seeds = append(seeds, n)
		}
		d, err := recordDigests(seeds)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		b, _ := json.MarshalIndent(d, "", " ")
		fmt.Fprintln(stdout, string(b))
		return 0
	}

	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		traced:    *traceFlag == 1,
		storeRoot: *storeRoot,
		spansOut:  *spansOut,
	}
	if cfg.spansOut == "" {
		cfg.spansOut = fmt.Sprintf(".bench_build/spans-%s-%d.json", cfg.workload, cfg.seed)
	}
	res, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and assembles its result.
func measure(cfg config, log io.Writer) (*result, error) {
	// Bound every run, so a wedged one fails instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.window+150*time.Second)
	defer cancel()
	b := &run{cfg: cfg, layer: map[string]float64{}}
	if cfg.traced {
		b.rec = newRecorder()
	}
	if err := workloads[cfg.workload](ctx, b); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if b.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed", cfg.workload)
	}
	res := &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	failedRatio := float64(b.failed) / float64(b.attempted)
	var setups, sweeps, rate, p50, tails []float64
	for _, d := range b.setups {
		setups = append(setups, secs(d))
	}
	for _, d := range b.sweeps {
		sweeps = append(sweeps, secs(d))
	}
	for _, r := range b.perRound {
		rate = append(rate, r.rate)
		p50 = append(p50, r.p50)
		tails = append(tails, ms(r.tail.Value))
	}
	if !cfg.traced {
		vals := map[string]float64{
			"setup_s":      stats.Median(setups),
			"sweep_s":      stats.Median(sweeps),
			"ops_per_s":    stats.Median(rate),
			"p50_ms":       stats.Median(p50),
			"tail_ms":      stats.Median(tails),
			"peak_rss_mib": b.peakRSS,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	} else {
		spans := b.rec.snapshot()
		b.layer["bench.failed_ratio"] = failedRatio
		b.layer["bench.ref_ms"] = stats.Median(b.refs) / 1e6
		b.layer["bench.explained_ratio"] = explainedRatio(spans)
		if b.tOps > 0 {
			b.layer["bench.alloc_bytes_per_op"] = float64(b.tAlloc) / float64(b.tOps)
			b.layer["bench.gc_cycles"] = float64(b.tGC) / float64(b.tOps)
		}
		if b.ops > 0 && b.tOps > 0 {
			b.layer["bench.tracing_overhead_ratio"] = (secs(b.tBusy) / float64(b.tOps)) / (secs(b.busy) / float64(b.ops))
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{b.layer[m.name], m.unit}
		}
		if err := b.rec.write(cfg.spansOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(log, "spans: %d written to %s; self time by span:\n", len(spans), cfg.spansOut)
		self := selfTimes(spans)
		for _, name := range sortedKeys(self) {
			fmt.Fprintf(log, "  %-24s %12.3f ms\n", name, float64(self[name])/1e6)
		}
	}
	fmt.Fprintf(log, "%s seed %d: %d attempted, %d failed (failed_ratio %.4f), %d set-ups, %d sweeps, %d ops\n",
		cfg.workload, cfg.seed, b.attempted, b.failed, failedRatio, len(b.setups), len(b.sweeps)+b.tRounds, b.ops+b.tOps)
	fmt.Fprintf(log, "reference probe: median %.4g ms over %d readings (nominal %.4g ms); times below are at reference speed\n",
		stats.Median(b.refs)/1e6, len(b.refs), ms(refNominal))
	for i, r := range b.perRound {
		fmt.Fprintf(log, "round %d: %.6g ops/s, p50 %.4g ms, tail p%.2f of %d samples %.4g ms; reference %.4g ms\n",
			i, r.rate, r.p50, r.tail.Pct, r.tail.N, ms(r.tail.Value), r.ref)
	}
	names := endToEnd
	if cfg.traced {
		names = perLayer
	}
	for _, m := range names {
		fmt.Fprintf(log, "  %-30s %16.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	return res, nil
}

// run accumulates one invocation's measurements. Untraced rounds feed
// the end-to-end metrics; traced rounds feed the per-layer ones. Every
// time booked here is at reference speed (see ref.go).
type run struct {
	cfg config
	rec *recorder // nil in an untraced run

	setups []time.Duration // every set-up, traced or not
	sweeps []time.Duration // untraced rounds' sweep times
	// perRound holds each untraced round's throughput and latency
	// percentiles; the reported values are their medians over rounds.
	perRound []roundStats
	ops      int           // untraced ops completed ...
	busy     time.Duration // ... in this much measured time
	tOps     int           // traced ops completed ...
	tBusy    time.Duration // ... in this much measured time

	// cur is the round in progress, in host time; probes are the
	// reference readings taken during it, refs every reading of the run.
	cur       rawRound
	probes    []refPoint
	lastProbe time.Time
	refs      []float64

	tRounds   int
	tAlloc    uint64 // bytes allocated during traced measured parts
	tGC       uint32 // GC cycles during traced measured parts
	attempted int
	failed    int
	peakRSS   float64
	layer     map[string]float64
}

// rawRound is what a workload books during one round, in host time.
type rawRound struct {
	setups []time.Duration
	sweep  time.Duration // 0: the round delivered no sweep
	ops    int
	busy   time.Duration
	lat    []time.Duration
}

// rounds runs round(traced) until the measuring window is spent. A round
// starts only while the median round so far still fits in what is left,
// so a run overshoots its window by less than one round. A traced run
// alternates untraced and traced rounds, starting untraced, and runs at
// least one of each. Between rounds the previous round's garbage is
// collected outside the timed parts; then the host's speed is read, and
// read again when the round ends, and the round's times are booked at
// reference speed.
func (b *run) rounds(round func(traced bool) error) error {
	start := time.Now()
	minRounds := 1
	if b.rec != nil {
		minRounds = 2
	}
	var lens []float64
	for i := 0; ; i++ {
		left := b.cfg.window - time.Since(start)
		if i >= minRounds && (left <= 0 || time.Duration(stats.Median(lens)) > left) {
			break
		}
		runtime.GC()
		traced := b.rec != nil && i%2 == 1
		t0 := time.Now()
		b.cur, b.probes = rawRound{}, nil
		b.probe()
		if err := round(traced); err != nil {
			return err
		}
		b.probe()
		b.book(traced)
		lens = append(lens, float64(time.Since(t0)))
		if traced {
			b.tRounds++
		}
	}
	b.peakRSS = peakRSSMiB()
	return nil
}

// probe takes a reference reading. Workloads call it between their
// timed parts, where nothing else runs, to follow the host's speed
// through a long round.
func (b *run) probe() {
	gap := time.Since(b.lastProbe)
	ref := refProbe()
	b.lastProbe = time.Now()
	b.probes = append(b.probes, refPoint{gap: gap, ref: ref})
	b.refs = append(b.refs, float64(ref))
}

// book converts the finished round to reference speed and files it.
func (b *run) book(traced bool) {
	ref := roundRef(b.probes)
	k := float64(refNominal) / ref
	at := func(d time.Duration) time.Duration { return time.Duration(float64(d) * k) }
	c := b.cur
	for _, d := range c.setups {
		b.setups = append(b.setups, at(d))
	}
	if traced {
		b.tOps += c.ops
		b.tBusy += at(c.busy)
		return
	}
	b.ops += c.ops
	b.busy += at(c.busy)
	if c.sweep > 0 {
		b.sweeps = append(b.sweeps, at(c.sweep))
	}
	t := tailOf(c.lat)
	t.Value = at(t.Value)
	b.perRound = append(b.perRound, roundStats{
		rate: float64(c.ops) / secs(at(c.busy)),
		p50:  ms(at(durMedian(c.lat))),
		tail: t,
		ref:  ref / 1e6,
	})
}

// recOf returns the recorder for a traced round, nil otherwise.
func (b *run) recOf(traced bool) *recorder {
	if traced {
		return b.rec
	}
	return nil
}

// setup books one set-up of the current round.
func (b *run) setup(d time.Duration) { b.cur.setups = append(b.cur.setups, d) }

// done books the current round's measured ops: how many completed, in
// how much time, the round's sweep time (0 for none) and every op's
// latency.
func (b *run) done(ops int, busy, sweep time.Duration, lat []time.Duration) {
	b.cur.ops, b.cur.busy, b.cur.sweep, b.cur.lat = ops, busy, sweep, lat
}

// mean folds v into a per-layer metric's running mean over the traced
// rounds, the current round included.
func (b *run) mean(name string, v float64) {
	n := float64(b.tRounds + 1)
	b.layer[name] += (v - b.layer[name]) / n
}

// roundStats is one untraced round's end-to-end view.
type roundStats struct {
	rate float64 // ops per second of measured time
	p50  float64 // median op latency, ms
	tail tail    // tail op latency (see tailOf)
	ref  float64 // the round's weighted reference reading, ms
}

// startMem snapshots the process's allocation and GC counters before a
// traced round's measured part; endMem books the difference.
func startMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (b *run) endMem(m0 runtime.MemStats) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	b.tAlloc += m1.TotalAlloc - m0.TotalAlloc
	b.tGC += m1.NumGC - m0.NumGC
}

// peakRSSMiB reads the process's peak resident set (Linux VmHWM); where
// that is unavailable it falls back to the Go runtime's OS reservation.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
