package sim

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/pipeline"
	"dtexl/internal/stats"
	"dtexl/internal/trace"
)

// Table is a rendered experiment: one row per configuration/series, one
// column per benchmark plus a final aggregate column, mirroring how the
// paper's bar charts are organized.
type Table struct {
	ID     string // "fig11", "tab1", ...
	Title  string
	Metric string // meaning of the numbers
	Cols   []string
	Rows   []TableRow
}

// TableRow is one series of a Table.
type TableRow struct {
	Name   string
	Values []float64
}

// numCell formats one table value, rendering NaN — a failed cell under
// -keep-going — as "NA" right-aligned to the same width.
func numCell(format string, width int, v float64) string {
	if math.IsNaN(v) {
		return fmt.Sprintf("%*s", width, "NA")
	}
	return fmt.Sprintf(format, v)
}

// csvCell is numCell for CSV fields (%.6g, unpadded).
func csvCell(v float64) string {
	if math.IsNaN(v) {
		return "NA"
	}
	return fmt.Sprintf("%.6g", v)
}

// RenderCSV writes the table as CSV: one header row of benchmark
// columns, one record per series. Failed cells render as NA.
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s (%s)\n", t.ID, t.Title, t.Metric)
	fmt.Fprintf(w, "series,%s\n", strings.Join(t.Cols, ","))
	for _, r := range t.Rows {
		fmt.Fprint(w, r.Name)
		for _, v := range r.Values {
			fmt.Fprintf(w, ",%s", csvCell(v))
		}
		fmt.Fprintln(w)
	}
}

// Render pretty-prints the table. Failed cells render as NA.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   metric: %s\n", t.Metric)
	fmt.Fprintf(w, "%-18s", "")
	for _, c := range t.Cols {
		fmt.Fprintf(w, "%9s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-18s", r.Name)
		for _, v := range r.Values {
			fmt.Fprint(w, numCell("%9.3f", 9, v))
		}
		fmt.Fprintln(w)
	}
}

// ViolinTable carries the five-number summaries behind a violin plot
// (Figs. 14 and 15).
type ViolinTable struct {
	ID     string
	Title  string
	Metric string
	Rows   []ViolinRow
}

// ViolinRow is one violin: a benchmark under one configuration.
type ViolinRow struct {
	Bench   string
	Config  string
	Summary stats.Summary
}

// RenderCSV writes the violin summaries as CSV. Failed rows render as
// NA.
func (t *ViolinTable) RenderCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s (%s)\n", t.ID, t.Title, t.Metric)
	fmt.Fprintln(w, "bench,config,min,q1,median,mean,q3,max")
	for _, r := range t.Rows {
		s := r.Summary
		fmt.Fprintf(w, "%s,%s,%s,%s,%s,%s,%s,%s\n",
			r.Bench, r.Config,
			csvCell(s.Min), csvCell(s.Q1), csvCell(s.Median),
			csvCell(s.Mean), csvCell(s.Q3), csvCell(s.Max))
	}
}

// Render pretty-prints the violin summaries. Failed rows render as NA.
func (t *ViolinTable) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   metric: %s\n", t.Metric)
	fmt.Fprintf(w, "%-6s %-12s %8s %8s %8s %8s %8s %8s\n",
		"bench", "config", "min", "q1", "median", "mean", "q3", "max")
	for _, r := range t.Rows {
		s := r.Summary
		fmt.Fprintf(w, "%-6s %-12s %s %s %s %s %s %s\n",
			r.Bench, r.Config,
			numCell("%8.2f", 8, s.Min), numCell("%8.2f", 8, s.Q1),
			numCell("%8.2f", 8, s.Median), numCell("%8.2f", 8, s.Mean),
			numCell("%8.2f", 8, s.Q3), numCell("%8.2f", 8, s.Max))
	}
}

// Runner executes experiments with memoized simulation runs, so figures
// sharing configurations (e.g. Figs. 11 and 12, or 17 and 18) pay for
// each run once. Memoization is layered (see DESIGN.md, "Memoization
// correctness"):
//
//  1. scenes: one generated animation per (benchmark, resolution, seed,
//     frames), shared by every policy (trace.SceneStore);
//  2. preps: one policy-independent front half — geometry, binning,
//     front-end cache snapshot, raster coverage — per (benchmark,
//     pipeline.FrontKey), shared across policies, SC counts and L1
//     sizes (pipeline.PreparedFrame);
//  3. sims: one full simulation per effective pipeline.Config, so
//     differently-named policies that resolve to the same machine
//     configuration (e.g. DTexL and HLB-flp2) run once.
//
// All three layers are single-flight and safe for concurrent use from
// the Runner's worker pool (fanOut).
type Runner struct {
	Opt Options
	// Progress, if set, receives a line per completed simulation.
	Progress func(string)
	// CSV switches RunExperiment's output from aligned text to CSV.
	CSV bool
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS, 1 =
	// serial), both in Warm and across the benchmarks of each experiment
	// row. Individual simulations are single-threaded and independent;
	// results, failures and errors are deterministic regardless of
	// completion order.
	Parallelism int
	// PrepBudget bounds the bytes retained by memoized frame
	// preparations (0 = a 4 GiB default); least-recently-used
	// preparations beyond it are dropped and recomputed on demand.
	PrepBudget int64

	// Ctx, when non-nil, is the base context of every simulation:
	// canceling it (e.g. from a SIGINT handler) aborts in-flight runs at
	// the next executor watchdog poll.
	Ctx context.Context
	// RunTimeout, when positive, bounds each simulation's wall time: a
	// run past its deadline fails with context.DeadlineExceeded instead
	// of hanging the suite.
	RunTimeout time.Duration
	// KeepGoing degrades instead of aborting: a failed simulation marks
	// its table cells NA, the failure is recorded (Failures), and every
	// other cell still renders. The failed configuration is cached so a
	// cell shared by several figures fails once, not once per figure.
	KeepGoing bool
	// Journal, when non-nil, checkpoints every completed simulation and
	// serves journaled results instead of recomputing them — the
	// crash-safe resume path behind -checkpoint.
	Journal *Journal
	// Store, when non-nil, is the shared content-addressed result store
	// (L2): lookups fall through L1 memo → Journal → Store → compute, and
	// computed cells are recorded back so any process sharing the store —
	// including a cold-started fleet worker — answers them without
	// recomputing. Store entries are checksummed; a corrupt entry reads
	// as a miss and the recompute repairs it.
	Store *Store
	// Chaos, when non-nil, injects a fault into the matching
	// (benchmark, policy) cell. Fault-injection testing only.
	Chaos *ChaosConfig

	scenes *trace.SceneStore
	sims   *memo[simKey, *simResult]

	prepOnce sync.Once
	preps    *prepStore

	// failure bookkeeping under KeepGoing.
	failMu     sync.Mutex
	failures   []CellFailure
	failSeen   map[string]bool
	failedSims map[simKey]error

	// completedSims counts unique successful simulations (atomic),
	// including journal replays — the "partial results" side of the exit
	// code contract.
	completedSims uint64

	// wall-clock split, in nanoseconds (atomic). prepareNanos is the whole
	// preparation (including waiting on another worker's in-flight build);
	// geometryNanos/coverageNanos split only the actual build time.
	generateNanos int64
	prepareNanos  int64
	geometryNanos int64
	coverageNanos int64
	rasterNanos   int64
}

// CellFailure records one failed (benchmark, series) cell under
// KeepGoing.
type CellFailure struct {
	Bench  string
	Series string
	Err    error
}

// Failures returns the cells that failed under KeepGoing, in first-seen
// order. Safe to call concurrently with runs.
func (r *Runner) Failures() []CellFailure {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	out := make([]CellFailure, len(r.failures))
	copy(out, r.failures)
	return out
}

// CompletedRuns reports how many unique simulations completed
// successfully (journal replays included). Together with Failures it
// drives the CLI's 0/1/2 exit-code contract: failures with completed
// runs is "partial results" (2), failures without is "total failure"
// (1).
func (r *Runner) CompletedRuns() uint64 {
	return atomic.LoadUint64(&r.completedSims)
}

// recordFailure notes a failed cell once per (benchmark, series) pair.
func (r *Runner) recordFailure(alias, series string, err error) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if r.failSeen == nil {
		r.failSeen = make(map[string]bool)
	}
	k := alias + "/" + series
	if r.failSeen[k] {
		return
	}
	r.failSeen[k] = true
	r.failures = append(r.failures, CellFailure{Bench: alias, Series: series, Err: err})
}

// baseCtx resolves the Runner's root context.
func (r *Runner) baseCtx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// fanOut calls do(i) for every i in [0, n) on at most Parallelism
// goroutines (0 = GOMAXPROCS; 1 runs the calls inline), starting them in
// index order; do names the cell it ran and returns its error. Under
// KeepGoing every call runs and the failures are recorded in index
// order. Otherwise no call starts after one fails, and fanOut returns
// the lowest-index error: every call below a failing index has started
// by then, so it is the error a serial loop would have stopped at.
func (r *Runner) fanOut(n int, do func(i int) (alias, series string, err error)) error {
	fails := make([]CellFailure, n)
	var next atomic.Int64
	var stop atomic.Bool
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			f := &fails[i]
			if f.Bench, f.Series, f.Err = do(i); f.Err != nil && !r.KeepGoing {
				stop.Store(true)
			}
		}
	}
	workers := r.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, f := range fails {
		if f.Err == nil {
			continue
		}
		if !r.KeepGoing {
			return f.Err
		}
		r.recordFailure(f.Bench, f.Series, f.Err)
	}
	return nil
}

// sharedRows assembles k table rows that share their simulations: get
// runs (memoized) simulations for one benchmark and returns its k cell
// values, one per row. The benchmarks run side by side on fanOut's pool
// and each value lands in its benchmark's column, so the rows do not
// depend on completion order. Under KeepGoing a failed benchmark's k
// cells become NaN — rendered "NA" — with the failure recorded against
// series; otherwise the first failing benchmark's error aborts the
// experiment.
func (r *Runner) sharedRows(series string, k int, get func(alias string) ([]float64, error)) ([][]float64, error) {
	aliases := r.Opt.aliases()
	rows := make([][]float64, k)
	for j := range rows {
		rows[j] = make([]float64, len(aliases))
	}
	err := r.fanOut(len(aliases), func(i int) (string, string, error) {
		vals, err := get(aliases[i])
		for j := range rows {
			if err != nil {
				rows[j][i] = math.NaN()
			} else {
				rows[j][i] = vals[j]
			}
		}
		return aliases[i], series, err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// rowCells assembles one table row: sharedRows with one value per
// benchmark.
func (r *Runner) rowCells(series string, get func(alias string) (float64, error)) ([]float64, error) {
	rows, err := r.sharedRows(series, 1, func(alias string) ([]float64, error) {
		v, err := get(alias)
		return []float64{v}, err
	})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// NewRunner returns a Runner over the given options.
func NewRunner(opt Options) *Runner {
	return &Runner{
		Opt:    opt,
		scenes: trace.NewSceneStore(),
		sims:   newMemo[simKey, *simResult](),
	}
}

// prepStoreLazy returns the preparation store, building it on first use
// so PrepBudget set after NewRunner is honored.
func (r *Runner) prepStoreLazy() *prepStore {
	r.prepOnce.Do(func() { r.preps = newPrepStore(r.PrepBudget) })
	return r.preps
}

func (r *Runner) run(alias string, pol core.Policy, ub bool) (*RunResult, error) {
	var mutate func(*pipeline.Config)
	if ub {
		mutate = func(cfg *pipeline.Config) { core.ApplyUpperBound(cfg) }
	}
	return r.RunOneWith(alias, pol, mutate)
}

// runJob names one simulation for Warm.
type runJob struct {
	Alias      string
	Policy     core.Policy
	UpperBound bool
}

// Warm executes the given simulations on fanOut's pool (bounded by
// Parallelism) and memoizes their results, so the figure functions that
// follow assemble their tables from the cache. Experiments share many
// configurations; Warm with the union of jobs parallelizes a whole
// evaluation.
//
// On failure Warm returns the error of the lowest-index failed job. The
// failed job leaves no memo entry behind (the single-flight layer
// removes entries on error), so completed results stay usable and a
// retried job re-executes. A panicking job is recovered into an error by
// the memo layer, so it cannot kill a worker goroutine or the process.
//
// Under KeepGoing failed jobs are recorded (Failures) in job order and
// the remaining jobs still run; Warm then returns nil and the failed
// cells surface as NA when the figures render.
func (r *Runner) Warm(jobs []runJob) error {
	return r.fanOut(len(jobs), func(i int) (string, string, error) {
		j := jobs[i]
		_, err := r.run(j.Alias, j.Policy, j.UpperBound)
		return j.Alias, j.Policy.Name, err
	})
}

// WarmAll pre-runs every simulation the paper's figures need — the
// suite cells the fleet shards (SuiteCells) — in parallel.
// RunExperiment calls afterwards hit the cache.
func (r *Runner) WarmAll() error {
	var jobs []runJob
	for _, c := range SuiteCells(r.Opt) {
		pol, ub, err := c.ResolvePolicy()
		if err != nil {
			return err
		}
		jobs = append(jobs, runJob{c.Bench, pol, ub})
	}
	return r.Warm(jobs)
}

// withMean and withGeoMean append the aggregate column, skipping NA
// cells (NaN) so one failed benchmark does not poison a row's average.
// On clean rows they compute exactly what stats.Mean/GeoMean compute.
func withMean(vals []float64) []float64 { return append(vals, naMean(vals)) }

func withGeoMean(vals []float64) []float64 { return append(vals, naGeoMean(vals)) }

func naMean(vals []float64) float64 {
	s, n := 0.0, 0
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		s += v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

func naGeoMean(vals []float64) float64 {
	s, n := 0.0, 0
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		if v > 0 {
			s += math.Log(v)
		}
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(s / float64(n))
}

func (r *Runner) cols() []string { return append(r.Opt.aliases(), "Avg") }

// ---------------------------------------------------------------------
// Motivation figures
// ---------------------------------------------------------------------

// Fig1 reproduces Figure 1: the normalized mean deviation of quads
// (threads) per SC for a load-balancing scheduler (FG-xshift2) versus a
// texture-locality scheduler (CG-square), per benchmark. Values are
// normalized to the load-balancing scheduler.
func (r *Runner) Fig1() (*Table, error) {
	lbPol := core.Baseline()
	tlPol, err := core.PolicyByName("CG-square")
	if err != nil {
		return nil, err
	}
	lbRow, err := r.rowCells("LB (FG-xshift2)", func(alias string) (float64, error) {
		if _, err := r.run(alias, lbPol, false); err != nil {
			return 0, err
		}
		return 1, nil
	})
	if err != nil {
		return nil, err
	}
	tlRow, err := r.rowCells("TL (CG-square)", func(alias string) (float64, error) {
		lb, err := r.run(alias, lbPol, false)
		if err != nil {
			return 0, err
		}
		tl, err := r.run(alias, tlPol, false)
		if err != nil {
			return 0, err
		}
		return tl.Metrics.MeanTileQuadDeviation() / lb.Metrics.MeanTileQuadDeviation(), nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "fig1",
		Title:  "Thread-per-SC imbalance: load balancing vs texture locality",
		Metric: "mean deviation of quads per SC, normalized to the LB scheduler",
		Cols:   r.cols(),
		Rows: []TableRow{
			{Name: "LB (FG-xshift2)", Values: withMean(lbRow)},
			{Name: "TL (CG-square)", Values: withMean(tlRow)},
		},
	}, nil
}

// Fig2 reproduces Figure 2: L2 accesses of the texture-locality scheduler
// normalized to the load-balancing one.
func (r *Runner) Fig2() (*Table, error) {
	tlPol, err := core.PolicyByName("CG-square")
	if err != nil {
		return nil, err
	}
	row, err := r.rowCells("TL (CG-square)", func(alias string) (float64, error) {
		lb, err := r.run(alias, core.Baseline(), false)
		if err != nil {
			return 0, err
		}
		tl, err := r.run(alias, tlPol, false)
		if err != nil {
			return 0, err
		}
		return float64(tl.Metrics.L2Accesses()) / float64(lb.Metrics.L2Accesses()), nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "fig2",
		Title:  "L2 accesses: texture-locality scheduler vs load balancing",
		Metric: "L2 accesses normalized to the LB scheduler",
		Cols:   r.cols(),
		Rows:   []TableRow{{Name: "TL (CG-square)", Values: withMean(row)}},
	}, nil
}

// ---------------------------------------------------------------------
// Quad grouping exploration (Figs. 11 and 12)
// ---------------------------------------------------------------------

// Fig11 reproduces Figure 11: average L2 accesses of the Fig. 6 quad
// groupings, normalized to FG-xshift2 per benchmark.
func (r *Runner) Fig11() (*Table, error) {
	return r.groupingTable("fig11",
		"L2 accesses per quad grouping (fine- and coarse-grained)",
		"L2 accesses normalized to FG-xshift2",
		func(res, base *RunResult) float64 {
			return float64(res.Metrics.L2Accesses()) / float64(base.Metrics.L2Accesses())
		})
}

// Fig12 reproduces Figure 12: per-tile quad-distribution imbalance of the
// Fig. 6 groupings, normalized to FG-xshift2.
func (r *Runner) Fig12() (*Table, error) {
	return r.groupingTable("fig12",
		"Quad distribution imbalance per quad grouping",
		"mean deviation of quads per SC, normalized to FG-xshift2",
		func(res, base *RunResult) float64 {
			return res.Metrics.MeanTileQuadDeviation() / base.Metrics.MeanTileQuadDeviation()
		})
}

func (r *Runner) groupingTable(id, title, metric string, f func(res, base *RunResult) float64) (*Table, error) {
	t := &Table{ID: id, Title: title, Metric: metric, Cols: r.cols()}
	for _, pol := range core.GroupingPolicies() {
		pol := pol
		row, err := r.rowCells(pol.Name, func(alias string) (float64, error) {
			base, err := r.run(alias, core.Baseline(), false)
			if err != nil {
				return 0, err
			}
			res, err := r.run(alias, pol, false)
			if err != nil {
				return 0, err
			}
			return f(res, base), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: pol.Name, Values: withMean(row)})
	}
	return t, nil
}

// ---------------------------------------------------------------------
// Non-decoupled performance (Figs. 13, 14, 15)
// ---------------------------------------------------------------------

// Fig13 reproduces Figure 13: the speedup of the coarse-grained groupings
// over FG-xshift2 in the NON-decoupled architecture — the null result
// motivating the decoupled barriers.
func (r *Runner) Fig13() (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "Speedup of CG groupings without decoupling",
		Metric: "FPS speedup over FG-xshift2 (coupled)",
		Cols:   r.cols(),
	}
	for _, name := range []string{"CG-square", "CG-yrect"} {
		pol, err := core.PolicyByName(name)
		if err != nil {
			return nil, err
		}
		row, err := r.rowCells(name, func(alias string) (float64, error) {
			base, err := r.run(alias, core.Baseline(), false)
			if err != nil {
				return 0, err
			}
			res, err := r.run(alias, pol, false)
			if err != nil {
				return 0, err
			}
			return float64(base.Metrics.Cycles) / float64(res.Metrics.Cycles), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: name, Values: withGeoMean(row)})
	}
	return t, nil
}

// Fig14 reproduces Figure 14: violins of per-tile SC execution-time
// imbalance under FG-xshift2 vs CG-square (coupled).
func (r *Runner) Fig14() (*ViolinTable, error) {
	return r.violin("fig14",
		"SC execution time imbalance per tile",
		"per-tile mean deviation of SC execution time, % of mean",
		func(res *RunResult) []float64 { return scale100(res.Metrics.TileTimeDeviation) })
}

// Fig15 reproduces Figure 15: violins of per-tile quad-count imbalance.
func (r *Runner) Fig15() (*ViolinTable, error) {
	return r.violin("fig15",
		"Quad distribution imbalance per tile",
		"per-tile mean deviation of quads per SC, % of mean",
		func(res *RunResult) []float64 { return scale100(res.Metrics.TileQuadDeviation) })
}

func scale100(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 100 * x
	}
	return out
}

func (r *Runner) violin(id, title, metric string, f func(*RunResult) []float64) (*ViolinTable, error) {
	t := &ViolinTable{ID: id, Title: title, Metric: metric}
	cg, err := core.PolicyByName("CG-square")
	if err != nil {
		return nil, err
	}
	aliases := r.Opt.aliases()
	pols := []core.Policy{core.Baseline(), cg}
	names := []string{"FG-xshift2", cg.Name}
	t.Rows = make([]ViolinRow, len(aliases)*len(pols))
	err = r.fanOut(len(t.Rows), func(i int) (string, string, error) {
		alias, name := aliases[i/len(pols)], names[i%len(pols)]
		// A failed violin renders as an all-NA summary row.
		nan := math.NaN()
		sum := stats.Summary{Min: nan, Q1: nan, Median: nan, Mean: nan, Q3: nan, Max: nan}
		res, err := r.run(alias, pols[i%len(pols)], false)
		if err == nil {
			sum = stats.Summarize(f(res))
		}
		t.Rows[i] = ViolinRow{Bench: alias, Config: name, Summary: sum}
		return alias, name, err
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ---------------------------------------------------------------------
// DTexL evaluation (Figs. 16, 17, 18)
// ---------------------------------------------------------------------

// Fig16 reproduces Figure 16: the percentage decrease in total L2
// accesses for the eight Fig. 8 subtile mappings and the single-SC upper
// bound, all relative to the non-decoupled FG-xshift2 baseline.
func (r *Runner) Fig16() (*Table, error) {
	t := &Table{
		ID:     "fig16",
		Title:  "Decrease in L2 accesses per subtile mapping",
		Metric: "% decrease in total L2 accesses vs non-decoupled FG-xshift2",
		Cols:   r.cols(),
	}
	for _, pol := range core.Fig8Mappings() {
		pol := pol
		row, err := r.rowCells(pol.Name, func(alias string) (float64, error) {
			base, err := r.run(alias, core.Baseline(), false)
			if err != nil {
				return 0, err
			}
			res, err := r.run(alias, pol, false)
			if err != nil {
				return 0, err
			}
			return pctDecrease(base.Metrics.L2Accesses(), res.Metrics.L2Accesses()), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: pol.Name, Values: withMean(row)})
	}
	// Upper bound: one SC with a 4x L1.
	row, err := r.rowCells("UpperBound", func(alias string) (float64, error) {
		base, err := r.run(alias, core.Baseline(), false)
		if err != nil {
			return 0, err
		}
		ubPol := core.Baseline()
		ubPol.Name = "upper-bound"
		ub, err := r.run(alias, ubPol, true)
		if err != nil {
			return 0, err
		}
		return pctDecrease(base.Metrics.L2Accesses(), ub.Metrics.L2Accesses()), nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, TableRow{Name: "UpperBound", Values: withMean(row)})
	return t, nil
}

func pctDecrease(base, v uint64) float64 {
	return 100 * (1 - float64(v)/float64(base))
}

// Fig17 reproduces Figure 17: the FPS speedup of DTexL (HLB-flp2) and of
// the decoupled FG-xshift2 over the non-decoupled baseline.
func (r *Runner) Fig17() (*Table, error) {
	t := &Table{
		ID:     "fig17",
		Title:  "Speedup with the decoupled architecture",
		Metric: "FPS speedup over non-decoupled FG-xshift2",
		Cols:   r.cols(),
	}
	for _, pol := range []core.Policy{dtexlAsHLBFlp2(), core.BaselineDecoupled()} {
		pol := pol
		row, err := r.rowCells(pol.Name, func(alias string) (float64, error) {
			base, err := r.run(alias, core.Baseline(), false)
			if err != nil {
				return 0, err
			}
			res, err := r.run(alias, pol, false)
			if err != nil {
				return 0, err
			}
			return float64(base.Metrics.Cycles) / float64(res.Metrics.Cycles), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: pol.Name, Values: withGeoMean(row)})
	}
	return t, nil
}

// Fig18 reproduces Figure 18: the percentage decrease in total GPU energy
// for the same two configurations.
func (r *Runner) Fig18() (*Table, error) {
	t := &Table{
		ID:     "fig18",
		Title:  "Decrease in total GPU energy",
		Metric: "% decrease in total GPU energy vs non-decoupled FG-xshift2",
		Cols:   r.cols(),
	}
	for _, pol := range []core.Policy{dtexlAsHLBFlp2(), core.BaselineDecoupled()} {
		pol := pol
		row, err := r.rowCells(pol.Name, func(alias string) (float64, error) {
			base, err := r.run(alias, core.Baseline(), false)
			if err != nil {
				return 0, err
			}
			res, err := r.run(alias, pol, false)
			if err != nil {
				return 0, err
			}
			return 100 * (1 - res.Energy.Total()/base.Energy.Total()), nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{Name: pol.Name, Values: withMean(row)})
	}
	return t, nil
}

// dtexlAsHLBFlp2 returns the DTexL policy under its Fig. 17/18 label.
func dtexlAsHLBFlp2() core.Policy {
	p := core.DTexL()
	p.Name = "DTexL(HLB-flp2)"
	return p
}

// ExperimentIDs lists every implemented experiment: the paper's figures
// and tables first, then the ablations beyond the paper.
func ExperimentIDs() []string {
	return []string{
		"fig1", "fig2", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "tab1", "tab2",
		"abl-tileorder", "abl-warps", "abl-l1size", "abl-fifo", "abl-tilesize", "abl-latez", "abl-prefetch", "abl-nuca", "abl-warpsched", "bg-imr",
		"stalls",
	}
}

// RunExperiment executes one experiment by ID and renders it to w (as
// CSV when r.CSV is set; tab1/tab2 are text-only).
func (r *Runner) RunExperiment(id string, w io.Writer) error {
	table := renderTable
	violin := renderViolin
	if r.CSV {
		table = renderTableCSV
		violin = renderViolinCSV
	}
	switch strings.ToLower(id) {
	case "fig1":
		return table(r.Fig1())(w)
	case "fig2":
		return table(r.Fig2())(w)
	case "fig11":
		return table(r.Fig11())(w)
	case "fig12":
		return table(r.Fig12())(w)
	case "fig13":
		return table(r.Fig13())(w)
	case "fig14":
		return violin(r.Fig14())(w)
	case "fig15":
		return violin(r.Fig15())(w)
	case "fig16":
		return table(r.Fig16())(w)
	case "fig17":
		return table(r.Fig17())(w)
	case "fig18":
		return table(r.Fig18())(w)
	case "tab1":
		return r.Table1(w)
	case "tab2":
		return Table2(w)
	case "abl-tileorder":
		return table(r.AblTileOrder())(w)
	case "abl-warps":
		return table(r.AblWarpSlots())(w)
	case "abl-l1size":
		return table(r.AblL1Size())(w)
	case "abl-fifo":
		return table(r.AblFIFODepth())(w)
	case "abl-tilesize":
		return table(r.AblTileSize())(w)
	case "abl-latez":
		return table(r.AblLateZ())(w)
	case "abl-prefetch":
		return table(r.AblPrefetch())(w)
	case "abl-nuca":
		return table(r.AblNUCA())(w)
	case "abl-warpsched":
		return table(r.AblWarpSched())(w)
	case "bg-imr":
		return table(r.BgIMR())(w)
	case "stalls":
		return table(r.Stalls())(w)
	default:
		return fmt.Errorf("sim: unknown experiment %q (known: %s)", id, strings.Join(ExperimentIDs(), ", "))
	}
}

func renderTable(t *Table, err error) func(io.Writer) error {
	return func(w io.Writer) error {
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	}
}

func renderViolin(t *ViolinTable, err error) func(io.Writer) error {
	return func(w io.Writer) error {
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	}
}

func renderTableCSV(t *Table, err error) func(io.Writer) error {
	return func(w io.Writer) error {
		if err != nil {
			return err
		}
		t.RenderCSV(w)
		return nil
	}
}

func renderViolinCSV(t *ViolinTable, err error) func(io.Writer) error {
	return func(w io.Writer) error {
		if err != nil {
			return err
		}
		t.RenderCSV(w)
		return nil
	}
}
