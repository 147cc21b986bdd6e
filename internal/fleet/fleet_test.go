package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dtexl/internal/durable"
	"dtexl/internal/sim"
)

// fleetOptions is the miniature suite the tests shard: one benchmark at
// 1/8 scale, 22 cells.
func fleetOptions() sim.Options {
	opt := sim.ScaledOptions(8)
	opt.Benchmarks = []string{"TRu"}
	return opt
}

// serialRender is the correctness oracle: the experiment tables as a
// serial, store-free run renders them.
func serialRender(t *testing.T, opt sim.Options, exps []string) string {
	t.Helper()
	r := sim.NewRunner(opt)
	var buf bytes.Buffer
	for i, id := range exps {
		if i > 0 {
			fmt.Fprintln(&buf)
		}
		if err := r.RunExperiment(id, &buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// newTestCoordinator builds a coordinator with fast heartbeats over a
// fresh store, plus its HTTP server.
func newTestCoordinator(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Opt.Width == 0 {
		cfg.Opt = fleetOptions()
	}
	if cfg.Store == nil {
		st, err := sim.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.Logf = t.Logf
		cfg.Store = st
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

// runWorkers runs the given workers until the coordinator settles every
// cell (or the test times out).
func runWorkers(t *testing.T, c *Coordinator, workers ...*Worker) {
	t.Helper()
	ctx, cancel := context.WithTimeout(t.Context(), 3*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("worker %s: %v", w.cfg.Name, err)
			}
		}(w)
	}
	select {
	case <-c.Done():
	case <-ctx.Done():
		t.Fatalf("fleet did not settle: %+v", c.Stats())
	}
	wg.Wait()
}

// TestFleetCompletesSuiteByteIdentical: two workers shard the suite and
// the coordinator's store-backed render matches a serial run byte for
// byte — the fleet's core acceptance.
func TestFleetCompletesSuiteByteIdentical(t *testing.T) {
	exps := []string{"fig11", "fig16", "fig17"}
	opt := fleetOptions()
	want := serialRender(t, opt, exps)

	c, srv := newTestCoordinator(t, CoordinatorConfig{
		Opt:               opt,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	w1 := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "a", Logf: t.Logf})
	w2 := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "b", Logf: t.Logf})
	runWorkers(t, c, w1, w2)

	st := c.Stats()
	if !st.SuiteDone || st.Done != st.Cells || st.Quarantined != 0 {
		t.Fatalf("stats after sweep: %+v", st)
	}
	c1, c2 := w1.Status().Completed, w2.Status().Completed
	if c1+c2 < int64(st.Cells) {
		t.Errorf("workers completed %d+%d cells, want >= %d", c1, c2, st.Cells)
	}
	var got bytes.Buffer
	if err := c.RenderExperiments(exps, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Errorf("fleet render differs from serial run:\n--- want\n%s--- got\n%s", want, got.String())
	}
}

// TestHeartbeatLapseReassignment: a worker that takes a lease and goes
// silent loses it; another worker completes the cell; output stays
// byte-identical to a serial run; the stats endpoint reports the
// reassigned lease.
func TestHeartbeatLapseReassignment(t *testing.T) {
	opt := fleetOptions()
	want := serialRender(t, opt, []string{"fig11"})

	c, srv := newTestCoordinator(t, CoordinatorConfig{
		Opt:               opt,
		HeartbeatInterval: 30 * time.Millisecond,
		HeartbeatTimeout:  150 * time.Millisecond,
		StealAfter:        time.Hour, // reassignment, not stealing, must recover the cell
	})

	// The doomed worker: registers, grabs one lease, never heartbeats,
	// never reports — a SIGKILL mid-cell as the coordinator sees it.
	dead := c.register(RegisterRequest{Name: "doomed"})
	grant, ok, _ := c.lease(dead.WorkerID, 0)
	if !ok || grant.LeaseID == "" {
		t.Fatalf("doomed worker got no lease: %+v", grant)
	}

	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "survivor", Logf: t.Logf})
	runWorkers(t, c, w)

	st := c.Stats()
	if st.Quarantined != 0 || st.Done != st.Cells {
		t.Fatalf("stats after sweep: %+v", st)
	}
	if st.Reassigned < 1 {
		t.Fatalf("Reassigned = %d, want >= 1", st.Reassigned)
	}
	found := false
	for _, ra := range st.Reassignments {
		// Worker is "id (name)" when the name is known.
		if strings.HasPrefix(ra.Worker, dead.WorkerID) && ra.Cell == grant.Cell.ID() && ra.Reason == "heartbeat_lapse" {
			found = true
		}
	}
	if !found {
		t.Errorf("stats do not report the reassigned lease %s of %s: %+v", grant.LeaseID, dead.WorkerID, st.Reassignments)
	}
	var deadRow *WorkerStats
	for i := range st.Workers {
		if st.Workers[i].ID == dead.WorkerID {
			deadRow = &st.Workers[i]
		}
	}
	if deadRow == nil || deadRow.Live || deadRow.ActiveLeases != 0 {
		t.Errorf("doomed worker row = %+v, want dead with no leases", deadRow)
	}

	var got bytes.Buffer
	if err := c.RenderExperiments([]string{"fig11"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Errorf("post-reassignment render differs from serial run:\n--- want\n%s--- got\n%s", want, got.String())
	}
}

// TestWorkStealing: an idle worker steals the oldest over-age lease
// from a live-but-slow worker, and the slow worker's eventual result is
// accepted idempotently as a late duplicate.
func TestWorkStealing(t *testing.T) {
	opt := fleetOptions()
	c, srv := newTestCoordinator(t, CoordinatorConfig{
		Opt:               opt,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  time.Hour, // the slow worker stays live: only stealing may take the cell
		StealAfter:        50 * time.Millisecond,
	})

	// The slow worker: holds one lease forever while heartbeating.
	slow := c.register(RegisterRequest{Name: "slow"})
	grant, ok, _ := c.lease(slow.WorkerID, 0)
	if !ok || grant.LeaseID == "" {
		t.Fatalf("slow worker got no lease: %+v", grant)
	}
	stopBeat := make(chan struct{})
	defer close(stopBeat)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopBeat:
				return
			case <-tick.C:
				c.heartbeat(slow.WorkerID, 0)
			}
		}
	}()

	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "thief", Logf: t.Logf})
	runWorkers(t, c, w)

	st := c.Stats()
	if st.Stolen < 1 {
		t.Fatalf("Stolen = %d, want >= 1 (stats: %+v)", st.Stolen, st)
	}
	if st.Done != st.Cells || st.Quarantined != 0 {
		t.Fatalf("stats after sweep: %+v", st)
	}

	// The slow worker finally finishes its stolen-from-under-it cell and
	// reports with a long-retired lease: accepted, counted late.
	r := sim.NewRunner(opt)
	res, err := r.RunCell(t.Context(), grant.Cell)
	if err != nil {
		t.Fatal(err)
	}
	b, sum, err := sim.MarshalCellResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.complete(CompleteRequest{
		WorkerID: slow.WorkerID, LeaseID: grant.LeaseID, Cell: grant.Cell, Result: b, Sum: sum,
	}); err != nil {
		t.Fatalf("late duplicate completion rejected: %v", err)
	}
	if st := c.Stats(); st.LateResults < 1 {
		t.Errorf("LateResults = %d, want >= 1", st.LateResults)
	}
}

// TestRetryBudgetQuarantine: a cell that fails on every attempt is
// quarantined after the retry budget instead of wedging the fleet; the
// rest of the suite completes.
func TestRetryBudgetQuarantine(t *testing.T) {
	opt := fleetOptions()
	c, srv := newTestCoordinator(t, CoordinatorConfig{
		Opt:               opt,
		HeartbeatInterval: 30 * time.Millisecond,
		RetryBudget:       2,
	})
	poison := &sim.ChaosConfig{Bench: "TRu", Policy: "baseline", Mode: sim.ChaosError}
	w := NewWorker(WorkerConfig{
		Coordinator: srv.URL,
		Name:        "chaotic",
		Logf:        t.Logf,
		NewRunner: func(opt sim.Options) *sim.Runner {
			r := sim.NewRunner(opt)
			r.Chaos = poison
			return r
		},
	})
	runWorkers(t, c, w)

	st := c.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1 (stats: %+v)", st.Quarantined, st)
	}
	if st.Done != st.Cells-1 {
		t.Errorf("Done = %d, want %d (everything but the poison cell)", st.Done, st.Cells-1)
	}
	qc := st.QuarantinedCells[0]
	if qc.Cell != "TRu/baseline" || qc.Attempts != 2 || len(qc.Errors) == 0 {
		t.Errorf("quarantined cell = %+v, want TRu/baseline after 2 attempts with errors", qc)
	}

	// A valid late result recovers the quarantined cell.
	clean := sim.NewRunner(opt)
	res, err := clean.RunCell(t.Context(), sim.CellSpec{Bench: "TRu", Policy: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	b, sum, err := sim.MarshalCellResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.complete(CompleteRequest{WorkerID: "w999", LeaseID: "l999", Cell: sim.CellSpec{Bench: "TRu", Policy: "baseline"}, Result: b, Sum: sum}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Quarantined != 0 || st.Done != st.Cells {
		t.Errorf("stats after recovery = %+v, want all cells done", st)
	}
}

// TestCorruptResultRejected: a completion whose payload does not match
// its checksum is refused, counted, and the cell recovered by a retry.
func TestCorruptResultRejected(t *testing.T) {
	opt := fleetOptions()
	c, _ := newTestCoordinator(t, CoordinatorConfig{Opt: opt})
	reg := c.register(RegisterRequest{Name: "flaky"})
	grant, ok, _ := c.lease(reg.WorkerID, 0)
	if !ok {
		t.Fatal("no lease")
	}
	r := sim.NewRunner(opt)
	res, err := r.RunCell(t.Context(), grant.Cell)
	if err != nil {
		t.Fatal(err)
	}
	b, sum, err := sim.MarshalCellResult(res)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), b...)
	bad[len(bad)/2] ^= 0xff
	if err := c.complete(CompleteRequest{WorkerID: reg.WorkerID, LeaseID: grant.LeaseID, Cell: grant.Cell, Result: bad, Sum: sum}); err == nil {
		t.Fatal("corrupt result accepted")
	}
	st := c.Stats()
	if st.RejectedResults != 1 {
		t.Errorf("RejectedResults = %d, want 1", st.RejectedResults)
	}
	if c.cfg.Store.HasCell(opt, grant.Cell) {
		t.Error("corrupt result reached the store")
	}
	// The rejection released the lease; the same worker retries cleanly.
	grant2, ok, _ := c.lease(reg.WorkerID, 0)
	if !ok || grant2.Cell.ID() != grant.Cell.ID() {
		t.Fatalf("retry lease = %+v, want the same cell back", grant2)
	}
	if err := c.complete(CompleteRequest{WorkerID: reg.WorkerID, LeaseID: grant2.LeaseID, Cell: grant2.Cell, Result: b, Sum: sum}); err != nil {
		t.Fatal(err)
	}
	if !c.cfg.Store.HasCell(opt, grant.Cell) {
		t.Error("valid retry did not reach the store")
	}
}

// TestPartitionedWorkerLateResult: a worker that goes silent holding a
// finished result loses the lease, reports late after the partition
// heals, re-registers, and the suite still completes byte-identical.
func TestPartitionedWorkerLateResult(t *testing.T) {
	opt := fleetOptions()
	want := serialRender(t, opt, []string{"fig11"})

	c, srv := newTestCoordinator(t, CoordinatorConfig{
		Opt:               opt,
		HeartbeatInterval: 30 * time.Millisecond,
		HeartbeatTimeout:  120 * time.Millisecond,
		StealAfter:        time.Hour,
	})
	flaky := NewWorker(WorkerConfig{
		Coordinator:    srv.URL,
		Name:           "flaky",
		Logf:           t.Logf,
		PartitionAfter: 1,
		PartitionFor:   400 * time.Millisecond,
	})
	steady := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "steady", Logf: t.Logf})
	runWorkers(t, c, flaky, steady)

	st := c.Stats()
	if !st.SuiteDone || st.Quarantined != 0 {
		t.Fatalf("stats after sweep: %+v", st)
	}
	if st.Reassigned < 1 {
		t.Errorf("Reassigned = %d, want >= 1 (partition must lapse the lease)", st.Reassigned)
	}
	var got bytes.Buffer
	if err := c.RenderExperiments([]string{"fig11"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Errorf("post-partition render differs from serial run")
	}
}

// TestCoordinatorResumesFromStore: a second coordinator over the same
// store starts with every completed cell settled.
func TestCoordinatorResumesFromStore(t *testing.T) {
	opt := fleetOptions()
	st, err := sim.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Logf = t.Logf
	c1, srv := newTestCoordinator(t, CoordinatorConfig{Opt: opt, Store: st, HeartbeatInterval: 30 * time.Millisecond})
	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "a", Logf: t.Logf})
	runWorkers(t, c1, w)

	c2, err := NewCoordinator(CoordinatorConfig{Opt: opt, Store: st, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	st2 := c2.Stats()
	if st2.StorePrimed != st2.Cells || !st2.SuiteDone {
		t.Fatalf("resumed coordinator stats = %+v, want fully primed", st2)
	}
	select {
	case <-c2.Done():
	default:
		t.Error("resumed coordinator's Done() not closed")
	}
}

// threeBenchOptions is the suite of the frame-placement tests: three
// benchmarks at 1/8 scale, 66 cells reading three prepared frames.
func threeBenchOptions() sim.Options {
	opt := sim.ScaledOptions(8)
	opt.Benchmarks = []string{"TRu", "CCS", "SWa"}
	return opt
}

// TestSuiteCellsShardStable: the lease rule keeps a worker on the
// benchmark it last leased — the prepared frame its runner holds —
// until that benchmark's cells run out. With two workers over three
// benchmarks the grants are deterministic, the workers open different
// benchmarks, and every cell is granted once.
func TestSuiteCellsShardStable(t *testing.T) {
	opt := threeBenchOptions()
	// The lease rule never reads results, so each cell completes with
	// the smallest payload the store accepts.
	payload := []byte(`{"Metrics":{}}`)
	type grant struct {
		worker string
		cell   sim.CellSpec
	}
	sweep := func() []grant {
		c, _ := newTestCoordinator(t, CoordinatorConfig{Opt: opt, Logf: func(string, ...any) {}})
		ids := []string{c.register(RegisterRequest{Name: "a"}).WorkerID, c.register(RegisterRequest{Name: "b"}).WorkerID}
		pending := func(bench string) int {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, cl := range c.cells {
				if cl.spec.Bench == bench && cl.state == cellPending {
					n++
				}
			}
			return n
		}
		var grants []grant
		last := map[string]string{}
		for settled := false; !settled; {
			for _, id := range ids {
				g, ok, _ := c.lease(id, 0)
				if !ok || g.Stolen || g.Idle {
					t.Fatalf("worker %s: lease = %+v, ok = %v", id, g, ok)
				}
				if settled = g.Done; settled {
					break
				}
				if strings.Contains(g.Cell.ID(), "\n") {
					t.Fatalf("cell ID %q is not single-line", g.Cell.ID())
				}
				if prev := last[id]; prev != "" && prev != g.Cell.Bench && pending(prev) > 0 {
					t.Errorf("worker %s left %s for %s with %d cell(s) of %s pending", id, prev, g.Cell.ID(), pending(prev), prev)
				}
				last[id] = g.Cell.Bench
				grants = append(grants, grant{id, g.Cell})
				if err := c.complete(CompleteRequest{
					WorkerID: id, LeaseID: g.LeaseID, Cell: g.Cell, Result: payload, Sum: durable.Sum(payload),
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return grants
	}
	grants := sweep()
	if again := sweep(); !reflect.DeepEqual(grants, again) {
		t.Fatalf("grants differ between two identical sweeps:\n%v\n%v", grants, again)
	}
	cells := sim.SuiteCells(opt)
	seen := map[string]bool{}
	for _, g := range grants {
		seen[g.cell.ID()] = true
	}
	if len(grants) != len(cells) || len(seen) != len(cells) {
		t.Fatalf("%d grants over %d distinct cells, want each of the %d cells once", len(grants), len(seen), len(cells))
	}
	if a, b := grants[0], grants[1]; a.worker == b.worker || a.cell.Bench == b.cell.Bench {
		t.Errorf("first grants %+v and %+v; want two workers on different benchmarks", a, b)
	}
}

// TestFleetOneFramePerWorker: two workers over three benchmarks each
// hold one prepared frame at a time and between them prepare each frame
// about once — at most frames + workers − 1 preparations — and the
// render stays byte-identical to a serial run.
func TestFleetOneFramePerWorker(t *testing.T) {
	exps := []string{"fig11", "fig16", "fig17"}
	opt := threeBenchOptions()
	want := serialRender(t, opt, exps)

	// No lapse may re-register a worker mid-sweep: a fresh worker ID
	// starts on no benchmark and could cost a preparation.
	c, srv := newTestCoordinator(t, CoordinatorConfig{
		Opt:               opt,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  time.Minute,
	})
	var mu sync.Mutex
	var runners []*sim.Runner
	newRunner := func(opt sim.Options) *sim.Runner {
		r := sim.NewRunner(opt)
		mu.Lock()
		runners = append(runners, r)
		mu.Unlock()
		return r
	}
	w1 := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "a", Logf: t.Logf, NewRunner: newRunner})
	w2 := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "b", Logf: t.Logf, NewRunner: newRunner})
	runWorkers(t, c, w1, w2)

	if st := c.Stats(); st.Done != st.Cells || st.Stolen != 0 {
		t.Fatalf("stats after sweep: %+v", st)
	}
	if len(runners) != 2 {
		t.Fatalf("%d runners built, want 2", len(runners))
	}
	var misses uint64
	for i, r := range runners {
		tm := r.Timing()
		if tm.PeakPrepared != 1 {
			t.Errorf("worker runner %d held %d prepared frames at once, want 1", i, tm.PeakPrepared)
		}
		misses += tm.PrepMisses
	}
	if frames := uint64(len(opt.Benchmarks)); misses > frames+1 {
		t.Errorf("workers prepared %d frames for %d benchmarks, want at most %d", misses, frames, frames+1)
	}
	var got bytes.Buffer
	if err := c.RenderExperiments(exps, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Errorf("fleet render differs from serial run:\n--- want\n%s--- got\n%s", want, got.String())
	}
}

// TestCompleteKeepsExistingEntry: a completion for a cell whose valid
// entry a worker sharing the store has already written is admitted
// without writing the entry again.
func TestCompleteKeepsExistingEntry(t *testing.T) {
	opt := fleetOptions()
	dir := t.TempDir()
	st, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Logf = t.Logf
	c, _ := newTestCoordinator(t, CoordinatorConfig{Opt: opt, Store: st})
	reg := c.register(RegisterRequest{Name: "sharer"})
	grant, ok, _ := c.lease(reg.WorkerID, 0)
	if !ok || grant.LeaseID == "" {
		t.Fatalf("no lease: %+v", grant)
	}
	r := sim.NewRunner(opt)
	r.Store = st
	res, err := r.RunCell(t.Context(), grant.Cell)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("store holds %v (%v), want the worker's one entry", ents, err)
	}
	entry := filepath.Join(dir, ents[0].Name())
	before, err := os.Stat(entry)
	if err != nil {
		t.Fatal(err)
	}
	b, sum, err := sim.MarshalCellResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.complete(CompleteRequest{WorkerID: reg.WorkerID, LeaseID: grant.LeaseID, Cell: grant.Cell, Result: b, Sum: sum}); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(entry)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("the completion replaced the worker's valid entry")
	}
	if s := c.Stats(); s.Done != 1 || s.Leased != 0 {
		t.Errorf("stats after completion: done %d, leased %d; want 1, 0", s.Done, s.Leased)
	}
}
