package sim

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dtexl/internal/core"
	"dtexl/internal/pipeline"
)

// planJob is one queued cell, resolved.
type planJob struct {
	cell  CellSpec
	key   simKey
	pol   core.Policy
	err   error // resolution error, returned when the job runs
	group int   // its frame's (front key, benchmark) rank
}

// Warm simulates cells — a plan — on fanOut's pool and memoizes their
// results, so the tables that follow read them from the memo. Cells
// resolving to the same effective configuration run once.
//
// The queue is ordered by prepared frame: by front key, then by
// benchmark, each in order of first appearance, with two consecutive
// frames interleaved so two workers prepare different frames. A frame
// prepared for a planned cell stays resident only while queued planned
// cells still need it: when the last one finishes, the frame leaves
// the preparation store. Frames prepared outside a plan are left to
// PrepBudget.
//
// On failure Warm returns the error of the lowest-index failed cell. The
// failed cell leaves no memo entry behind (the single-flight layer
// removes entries on error), so completed results stay usable and a
// retried cell re-executes. A panicking cell is recovered into an error
// by the memo layer, so it cannot kill a worker goroutine or the
// process.
//
// Under KeepGoing failed cells are recorded (Failures) in queue order
// and the remaining cells still run; Warm then returns nil and the
// failed cells surface as NA when the tables render.
func (r *Runner) Warm(cells []CellSpec) error {
	var jobs []planJob
	seen := map[simKey]bool{}
	fronts, benches := map[pipeline.FrontKey]int{}, map[string]int{}
	for _, c := range cells {
		key, pol, err := cellKey(r.Opt, c)
		if err == nil {
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		group := firstSeen(fronts, pipeline.FrontKeyOf(key.Cfg))<<32 | firstSeen(benches, c.Bench)
		jobs = append(jobs, planJob{cell: c, key: key, pol: pol, err: err, group: group})
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].group < jobs[j].group })
	jobs = interleavePairs(jobs)

	preps := r.prepStoreLazy()
	for _, j := range jobs {
		if pk, ok := j.frame(); ok {
			preps.need(pk, 1)
		}
	}
	ran := make([]bool, len(jobs))
	defer func() {
		// Cells a strict failure kept from running need their frames no
		// more either.
		for i, j := range jobs {
			if pk, ok := j.frame(); ok && !ran[i] {
				preps.need(pk, -1)
			}
		}
	}()
	return r.fanOut(len(jobs), func(i int) (string, string, error) {
		j := jobs[i]
		ran[i] = true
		series := strings.TrimPrefix(j.cell.ID(), j.cell.Bench+"/")
		if j.err != nil {
			return j.cell.Bench, series, j.err
		}
		_, err := r.simulate(r.baseCtx(), j.key, j.pol, true)
		if pk, ok := j.frame(); ok {
			preps.need(pk, -1)
		}
		return j.cell.Bench, series, err
	})
}

// frame returns the key of the prepared frame the job reads, if any.
func (j planJob) frame() (prepKey, bool) {
	if j.err != nil {
		return prepKey{}, false
	}
	return j.key.prepKey()
}

// firstSeen returns k's rank in order of first appearance in m.
func firstSeen[K comparable](m map[K]int, k K) int {
	i, ok := m[k]
	if !ok {
		i = len(m)
		m[k] = i
	}
	return i
}

// interleavePairs merges each pair of consecutive groups of the sorted
// jobs alternately, one cell of each in turn.
func interleavePairs(jobs []planJob) []planJob {
	out := make([]planJob, 0, len(jobs))
	for len(jobs) > 0 {
		a := 1
		for a < len(jobs) && jobs[a].group == jobs[0].group {
			a++
		}
		b := a
		for b < len(jobs) && jobs[b].group == jobs[a].group {
			b++
		}
		x, y := jobs[:a], jobs[a:b]
		for len(x) > 0 || len(y) > 0 {
			if len(x) > 0 {
				out, x = append(out, x[0]), x[1:]
			}
			if len(y) > 0 {
				out, y = append(out, y[0]), y[1:]
			}
		}
		jobs = jobs[b:]
	}
	return out
}

// WarmAll pre-runs every simulation the experiments read — the union of
// their plans — in parallel. RunExperiment calls afterwards hit the
// cache.
func (r *Runner) WarmAll() error {
	return r.Warm(r.planOf(ExperimentIDs()...))
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
