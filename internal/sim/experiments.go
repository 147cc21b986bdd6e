package sim

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dtexl/internal/core"
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
//     frames), shared by every policy;
//  2. preps: one policy-independent front half — geometry, binning,
//     front-end cache snapshot, raster coverage — per (benchmark,
//     pipeline.FrontKey), shared across policies, SC counts and L1
//     sizes (pipeline.PreparedFrame);
//  3. sims: one full simulation per effective pipeline.Config, so
//     differently-named policies that resolve to the same machine
//     configuration (e.g. DTexL and HLB-flp2) run once.
//
// All three layers are the one single-flight memo, safe for concurrent
// use from the Runner's worker pool (fanOut). Lookups fall through
// memo → Store → compute.
type Runner struct {
	Opt Options
	// Progress, if set, receives a line per completed simulation.
	Progress func(string)
	// CSV switches RunExperiment's output from aligned text to CSV.
	CSV bool
	// Parallelism bounds concurrent simulations in Warm (0 = GOMAXPROCS,
	// 1 = serial). Individual simulations are single-threaded and
	// independent; results, failures and errors are deterministic
	// regardless of completion order.
	Parallelism int
	// PrepBudget bounds the bytes retained by memoized frame
	// preparations (0 = a 4 GiB default); least-recently-used
	// preparations beyond it are dropped and recomputed on demand. A
	// frame Warm prepares leaves earlier, once its cells have run.
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
	// Store, when non-nil, is the content-addressed result store (L2):
	// lookups fall through L1 memo → Store → compute, and computed cells
	// are recorded back, so a restarted run resumes from its completed
	// cells and any process sharing the directory — including a
	// cold-started fleet worker — answers them without recomputing.
	// Store entries are checksummed; a corrupt entry reads as a miss and
	// the recompute repairs it.
	Store *Store
	// Chaos, when non-nil, injects a fault into the matching
	// (benchmark, policy) cell. Fault-injection testing only.
	Chaos *ChaosConfig

	scenes *memo[sceneKey, []*trace.Scene]
	sims   *memo[simKey, *simResult]

	prepOnce sync.Once
	preps    *prepStore

	// failure bookkeeping under KeepGoing.
	failMu     sync.Mutex
	failures   []CellFailure
	failSeen   map[string]bool
	failedSims map[simKey]error

	// completedSims counts unique successful simulations (atomic),
	// including store hits — the "partial results" side of the exit code
	// contract.
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
// successfully (store hits included). Together with Failures it
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

// NewRunner returns a Runner over the given options.
func NewRunner(opt Options) *Runner {
	return &Runner{
		Opt:    opt,
		scenes: newMemo[sceneKey, []*trace.Scene](),
		sims:   newMemo[simKey, *simResult](),
	}
}

// prepStoreLazy returns the preparation store, building it on first use
// so PrepBudget set after NewRunner is honored.
func (r *Runner) prepStoreLazy() *prepStore {
	r.prepOnce.Do(func() { r.preps = newPrepStore(r.PrepBudget) })
	return r.preps
}

// naMean and naGeoMean compute a row's aggregate column, skipping NA
// cells (NaN) so one failed benchmark does not poison the average. On
// clean rows they compute exactly what stats.Mean/GeoMean compute.
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

// An experiment declares one table of the evaluation: the cells it
// reads for every benchmark and how it renders them. A bar table has
// rows, a violin table a violin metric, and the text tables (tab1,
// tab2) only a text renderer, which reads no cells.
type experiment struct {
	id, title, metric string
	rows              []series
	violin            func(*RunResult) []float64
	text              func(r *Runner, w io.Writer) error
}

// A series is one row of a bar table: the cells it reads for each
// benchmark (Bench left empty) and the value it computes from their
// results, in cell order. Speedup rows average geometrically, the rest
// arithmetically.
type series struct {
	name  string
	cells []CellSpec
	value func(rs []*RunResult) float64
	geo   bool
}

// violinCells are the two configurations every violin table compares.
var violinCells = []struct {
	name string
	cell CellSpec
}{{"FG-xshift2", baseline}, {"CG-square", cell("CG-square")}}

// cells lists the cell templates the experiment reads per benchmark.
func (e *experiment) cells() []CellSpec {
	var cs []CellSpec
	for _, s := range e.rows {
		cs = append(cs, s.cells...)
	}
	if e.violin != nil {
		for _, v := range violinCells {
			cs = append(cs, v.cell)
		}
	}
	return cs
}

// baseline is the reference cell most series compare against.
var baseline = cell(core.Baseline().Name)

// cell is a template of the named policy.
func cell(policy string) CellSpec { return CellSpec{Policy: policy} }

// with returns the template with an override; a zero one changes
// nothing.
func (c CellSpec) with(o Override) CellSpec {
	if o != (Override{}) {
		c.Override = &o
	}
	return c
}

// Series values: rs[0] is the reference cell's result, rs[1] the
// compared one's.
func speedup(rs []*RunResult) float64 {
	return float64(rs[0].Metrics.Cycles) / float64(rs[1].Metrics.Cycles)
}

func l2Decrease(rs []*RunResult) float64 {
	return pctDecrease(rs[0].Metrics.L2Accesses(), rs[1].Metrics.L2Accesses())
}

func l2Ratio(rs []*RunResult) float64 {
	return float64(rs[1].Metrics.L2Accesses()) / float64(rs[0].Metrics.L2Accesses())
}

func quadDevRatio(rs []*RunResult) float64 {
	return rs[1].Metrics.MeanTileQuadDeviation() / rs[0].Metrics.MeanTileQuadDeviation()
}

func pctDecrease(base, v uint64) float64 {
	return 100 * (1 - float64(v)/float64(base))
}

// speedups declares one speedup row per override, each comparing
// subject with the baseline, both under the override when both is set.
func speedups(subject CellSpec, both bool, names []string, ovs []Override) []series {
	rows := make([]series, len(ovs))
	for i, o := range ovs {
		ref := baseline
		if both {
			ref = ref.with(o)
		}
		rows[i] = series{names[i], []CellSpec{ref, subject.with(o)}, speedup, true}
	}
	return rows
}

// experiments declares every experiment in ExperimentIDs order: the
// paper's figures and tables first, then the ablations beyond the
// paper (ablations.go) and the stall breakdown (stalls.go).
var experiments = []*experiment{
	fig1(), fig2(), fig11(), fig12(), fig13(), fig14(), fig15(), fig16(), fig17(), fig18(),
	{id: "tab1", text: (*Runner).Table1},
	{id: "tab2", text: func(_ *Runner, w io.Writer) error { return Table2(w) }},
	ablTileOrder(), ablWarpSlots(), ablL1Size(), ablFIFODepth(), ablTileSize(), ablLateZ(),
	ablPrefetch(), ablNUCA(), ablWarpSched(), bgIMR(), stalls(),
}

// ---------------------------------------------------------------------
// Motivation figures
// ---------------------------------------------------------------------

// fig1 reproduces Figure 1: the normalized mean deviation of quads
// (threads) per SC for a load-balancing scheduler (FG-xshift2) versus a
// texture-locality scheduler (CG-square), per benchmark. Values are
// normalized to the load-balancing scheduler.
func fig1() *experiment {
	return &experiment{id: "fig1",
		title:  "Thread-per-SC imbalance: load balancing vs texture locality",
		metric: "mean deviation of quads per SC, normalized to the LB scheduler",
		rows: []series{
			{"LB (FG-xshift2)", []CellSpec{baseline}, func([]*RunResult) float64 { return 1 }, false},
			{"TL (CG-square)", []CellSpec{baseline, cell("CG-square")}, quadDevRatio, false},
		}}
}

// fig2 reproduces Figure 2: L2 accesses of the texture-locality
// scheduler normalized to the load-balancing one.
func fig2() *experiment {
	return &experiment{id: "fig2",
		title:  "L2 accesses: texture-locality scheduler vs load balancing",
		metric: "L2 accesses normalized to the LB scheduler",
		rows:   []series{{"TL (CG-square)", []CellSpec{baseline, cell("CG-square")}, l2Ratio, false}}}
}

// ---------------------------------------------------------------------
// Quad grouping exploration (Figs. 11 and 12)
// ---------------------------------------------------------------------

// fig11 reproduces Figure 11: average L2 accesses of the Fig. 6 quad
// groupings, normalized to FG-xshift2 per benchmark.
func fig11() *experiment {
	return &experiment{id: "fig11",
		title:  "L2 accesses per quad grouping (fine- and coarse-grained)",
		metric: "L2 accesses normalized to FG-xshift2",
		rows:   groupingRows(l2Ratio)}
}

// fig12 reproduces Figure 12: per-tile quad-distribution imbalance of
// the Fig. 6 groupings, normalized to FG-xshift2.
func fig12() *experiment {
	return &experiment{id: "fig12",
		title:  "Quad distribution imbalance per quad grouping",
		metric: "mean deviation of quads per SC, normalized to FG-xshift2",
		rows:   groupingRows(quadDevRatio)}
}

func groupingRows(value func([]*RunResult) float64) []series {
	var rows []series
	for _, pol := range core.GroupingPolicies() {
		rows = append(rows, series{pol.Name, []CellSpec{baseline, cell(pol.Name)}, value, false})
	}
	return rows
}

// ---------------------------------------------------------------------
// Non-decoupled performance (Figs. 13, 14, 15)
// ---------------------------------------------------------------------

// fig13 reproduces Figure 13: the speedup of the coarse-grained
// groupings over FG-xshift2 in the NON-decoupled architecture — the null
// result motivating the decoupled barriers.
func fig13() *experiment {
	e := &experiment{id: "fig13",
		title:  "Speedup of CG groupings without decoupling",
		metric: "FPS speedup over FG-xshift2 (coupled)"}
	for _, name := range []string{"CG-square", "CG-yrect"} {
		e.rows = append(e.rows, series{name, []CellSpec{baseline, cell(name)}, speedup, true})
	}
	return e
}

// fig14 reproduces Figure 14: violins of per-tile SC execution-time
// imbalance under FG-xshift2 vs CG-square (coupled).
func fig14() *experiment {
	return &experiment{id: "fig14",
		title:  "SC execution time imbalance per tile",
		metric: "per-tile mean deviation of SC execution time, % of mean",
		violin: func(res *RunResult) []float64 { return scale100(res.Metrics.TileTimeDeviation) }}
}

// fig15 reproduces Figure 15: violins of per-tile quad-count imbalance.
func fig15() *experiment {
	return &experiment{id: "fig15",
		title:  "Quad distribution imbalance per tile",
		metric: "per-tile mean deviation of quads per SC, % of mean",
		violin: func(res *RunResult) []float64 { return scale100(res.Metrics.TileQuadDeviation) }}
}

func scale100(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 100 * x
	}
	return out
}

// ---------------------------------------------------------------------
// DTexL evaluation (Figs. 16, 17, 18)
// ---------------------------------------------------------------------

// fig16 reproduces Figure 16: the percentage decrease in total L2
// accesses for the eight Fig. 8 subtile mappings and the single-SC upper
// bound (one SC with a 4x L1), all relative to the non-decoupled
// FG-xshift2 baseline.
func fig16() *experiment {
	e := &experiment{id: "fig16",
		title:  "Decrease in L2 accesses per subtile mapping",
		metric: "% decrease in total L2 accesses vs non-decoupled FG-xshift2"}
	for _, pol := range core.Fig8Mappings() {
		e.rows = append(e.rows, series{pol.Name, []CellSpec{baseline, cell(pol.Name)}, l2Decrease, false})
	}
	ub := CellSpec{Policy: upperBoundName, UpperBound: true}
	e.rows = append(e.rows, series{"UpperBound", []CellSpec{baseline, ub}, l2Decrease, false})
	return e
}

// fig17 reproduces Figure 17: the FPS speedup of DTexL (HLB-flp2) and of
// the decoupled FG-xshift2 over the non-decoupled baseline.
func fig17() *experiment {
	e := &experiment{id: "fig17",
		title:  "Speedup with the decoupled architecture",
		metric: "FPS speedup over non-decoupled FG-xshift2"}
	for _, pol := range []core.Policy{dtexlAsHLBFlp2(), core.BaselineDecoupled()} {
		e.rows = append(e.rows, series{pol.Name, []CellSpec{baseline, cell(pol.Name)}, speedup, true})
	}
	return e
}

// fig18 reproduces Figure 18: the percentage decrease in total GPU
// energy for the same two configurations.
func fig18() *experiment {
	e := &experiment{id: "fig18",
		title:  "Decrease in total GPU energy",
		metric: "% decrease in total GPU energy vs non-decoupled FG-xshift2"}
	for _, pol := range []core.Policy{dtexlAsHLBFlp2(), core.BaselineDecoupled()} {
		e.rows = append(e.rows, series{pol.Name, []CellSpec{baseline, cell(pol.Name)}, func(rs []*RunResult) float64 {
			return 100 * (1 - rs[1].Energy.Total()/rs[0].Energy.Total())
		}, false})
	}
	return e
}

// dtexlAsHLBFlp2 returns the DTexL policy under its Fig. 17/18 label.
func dtexlAsHLBFlp2() core.Policy {
	p := core.DTexL()
	p.Name = "DTexL(HLB-flp2)"
	return p
}

// ---------------------------------------------------------------------
// Rendering: a pure read of the memoized cells
// ---------------------------------------------------------------------

// ExperimentIDs lists every implemented experiment: the paper's figures
// and tables first, then the ablations beyond the paper.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// CheckExperimentID returns an error unless id names an experiment,
// ignoring case as every lookup does.
func CheckExperimentID(id string) error {
	_, err := experimentByID(id)
	return err
}

// experimentByID looks an experiment up, ignoring case.
func experimentByID(id string) (*experiment, error) {
	for _, e := range experiments {
		if e.id == strings.ToLower(id) {
			return e, nil
		}
	}
	return nil, fmt.Errorf("sim: unknown experiment %q (known: %s)", id, strings.Join(ExperimentIDs(), ", "))
}

// planOf lists the cells the given experiments read, for every
// benchmark. Unknown ids read none.
func (r *Runner) planOf(ids ...string) []CellSpec {
	var cells []CellSpec
	for _, id := range ids {
		e, err := experimentByID(id)
		if err != nil {
			continue
		}
		for _, alias := range r.Opt.aliases() {
			for _, c := range e.cells() {
				c.Bench = alias
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// warmed looks an experiment up and warms its plan.
func (r *Runner) warmed(id string) (*experiment, error) {
	e, err := experimentByID(id)
	if err != nil {
		return nil, err
	}
	return e, r.Warm(r.planOf(e.id))
}

// results reads the memoized results of one benchmark's cells. Under
// KeepGoing a failed cell's cached error comes back without re-running.
func (r *Runner) results(alias string, cells []CellSpec) ([]*RunResult, error) {
	rs := make([]*RunResult, len(cells))
	for i, c := range cells {
		c.Bench = alias
		res, err := r.RunCell(r.baseCtx(), c)
		if err != nil {
			return nil, err
		}
		rs[i] = res
	}
	return rs, nil
}

// Table warms a bar-table experiment's plan and renders its rows from
// the memoized results. Under KeepGoing a benchmark whose cells failed
// renders NaN ("NA") in that row.
func (r *Runner) Table(id string) (*Table, error) {
	e, err := r.warmed(id)
	if err != nil {
		return nil, err
	}
	if e.rows == nil {
		return nil, fmt.Errorf("sim: %s is not a bar table", e.id)
	}
	t := &Table{ID: e.id, Title: e.title, Metric: e.metric, Cols: r.cols()}
	for _, s := range e.rows {
		var vals []float64
		for _, alias := range r.Opt.aliases() {
			v := math.NaN()
			rs, err := r.results(alias, s.cells)
			if err == nil {
				v = s.value(rs)
			} else if !r.KeepGoing {
				return nil, err
			}
			vals = append(vals, v)
		}
		agg := naMean
		if s.geo {
			agg = naGeoMean
		}
		t.Rows = append(t.Rows, TableRow{Name: s.name, Values: append(vals, agg(vals))})
	}
	return t, nil
}

// Violin warms a violin experiment's plan and summarizes each
// benchmark under each of violinCells. A failed violin renders as an
// all-NA summary row under KeepGoing.
func (r *Runner) Violin(id string) (*ViolinTable, error) {
	e, err := r.warmed(id)
	if err != nil {
		return nil, err
	}
	if e.violin == nil {
		return nil, fmt.Errorf("sim: %s is not a violin table", e.id)
	}
	t := &ViolinTable{ID: e.id, Title: e.title, Metric: e.metric}
	for _, alias := range r.Opt.aliases() {
		for _, v := range violinCells {
			nan := math.NaN()
			sum := stats.Summary{Min: nan, Q1: nan, Median: nan, Mean: nan, Q3: nan, Max: nan}
			rs, err := r.results(alias, []CellSpec{v.cell})
			if err == nil {
				sum = stats.Summarize(e.violin(rs[0]))
			} else if !r.KeepGoing {
				return nil, err
			}
			t.Rows = append(t.Rows, ViolinRow{Bench: alias, Config: v.name, Summary: sum})
		}
	}
	return t, nil
}

// RunExperiment warms one experiment's plan and renders it to w (as
// CSV when r.CSV is set; tab1/tab2 are text-only).
func (r *Runner) RunExperiment(id string, w io.Writer) error {
	e, err := experimentByID(id)
	if err != nil {
		return err
	}
	var t interface {
		Render(io.Writer)
		RenderCSV(io.Writer)
	}
	switch {
	case e.text != nil:
		return e.text(r, w)
	case e.violin != nil:
		t, err = r.Violin(id)
	default:
		t, err = r.Table(id)
	}
	if err != nil {
		return err
	}
	if r.CSV {
		t.RenderCSV(w)
	} else {
		t.Render(w)
	}
	return nil
}
