package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dtexl/internal/durable"
	"dtexl/internal/netauth"
	"dtexl/internal/sim"
)

// newTestHA builds one HA node over the shared store directory with
// fast failover timings; tune, when given, adjusts the configuration.
func newTestHA(t *testing.T, dir, node string, standby bool, opt sim.Options, tune ...func(*HAConfig)) *HA {
	t.Helper()
	st, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Logf = t.Logf
	cfg := HAConfig{
		Coordinator: CoordinatorConfig{
			Opt:               opt,
			Store:             st,
			HeartbeatInterval: 25 * time.Millisecond,
			HeartbeatTimeout:  250 * time.Millisecond,
			StealAfter:        time.Hour,
			Logf:              t.Logf,
		},
		NodeID:           node,
		Standby:          standby,
		LeaseInterval:    25 * time.Millisecond,
		LeaseTimeout:     150 * time.Millisecond,
		SnapshotInterval: 25 * time.Millisecond,
		Logf:             t.Logf,
	}
	for _, f := range tune {
		f(&cfg)
	}
	h, err := NewHA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// runHA runs h until the test ends and waits for it to stop before the
// test's directories are removed.
func runHA(t *testing.T, h *HA) {
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		h.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-stopped
	})
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFailoverMidSweepByteIdentical is the tentpole acceptance: the
// primary coordinator is killed (no final snapshot, no handoff) while
// three workers are mid-sweep; the standby fences the epoch, replays
// snapshot + store, adopts the workers, and the finished tables are
// byte-identical to a serial run with zero quarantined cells.
func TestFailoverMidSweepByteIdentical(t *testing.T) {
	exps := []string{"fig11", "fig16"}
	opt := fleetOptions()
	want := serialRender(t, opt, exps)
	dir := t.TempDir()

	primary := newTestHA(t, dir, "alpha", false, opt)
	standby := newTestHA(t, dir, "beta", true, opt)
	srvA := httptest.NewServer(primary.Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(standby.Handler())
	defer srvB.Close()

	ctx, cancel := context.WithTimeout(t.Context(), 3*time.Minute)
	defer cancel()
	// Both nodes write claims and snapshots into dir until Run returns:
	// wait for them, after the deferred cancel, before TempDir removes it.
	var nodes sync.WaitGroup
	t.Cleanup(nodes.Wait)
	for _, h := range []*HA{primary, standby} {
		nodes.Add(1)
		go func(h *HA) {
			defer nodes.Done()
			h.Run(ctx)
		}(h)
	}

	workers := make([]*Worker, 3)
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = NewWorker(WorkerConfig{
			Coordinators: []string{srvA.URL, srvB.URL},
			Name:         string(rune('a' + i)),
			Logf:         t.Logf,
		})
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("worker %s: %v", w.cfg.Name, err)
			}
		}(workers[i])
	}

	// Let the sweep get going, then kill the primary mid-flight: no
	// final snapshot, no lease handoff, connections dropped.
	waitFor(t, time.Minute, "primary to make progress", func() bool {
		c := primary.Coordinator()
		if c == nil {
			return false
		}
		st := c.Stats()
		return st.Done >= 3 && st.Done < st.Cells
	})
	primary.Halt()
	srvA.CloseClientConnections()
	srvA.Close()
	t.Log("primary killed")

	select {
	case <-standby.Done():
	case <-ctx.Done():
		t.Fatalf("standby never finished the sweep")
	}
	wg.Wait()

	c := standby.Coordinator()
	if c == nil {
		t.Fatal("standby has no active coordinator after Done")
	}
	st := c.Stats()
	if st.Epoch < 2 {
		t.Errorf("standby epoch = %d, want >= 2 (takeover must bump the epoch)", st.Epoch)
	}
	if st.NodeID != "beta" {
		t.Errorf("NodeID = %q, want beta", st.NodeID)
	}
	if st.Quarantined != 0 || st.Done != st.Cells || !st.SuiteDone {
		t.Fatalf("stats after failover: %+v", st)
	}
	// Duplicate-computation bound: beyond the in-flight overlap at the
	// kill (at most one cell per worker), every cell is computed once.
	// Aliased cells prime from the store, so the total can run under the
	// cell count — never meaningfully over it.
	var total int64
	for _, w := range workers {
		total += w.Status().Completed
	}
	if max := int64(st.Cells) + int64(len(workers)); total > max {
		t.Errorf("workers completed %d cells, want <= %d (duplicates beyond in-flight overlap)", total, max)
	}

	var got bytes.Buffer
	if err := c.RenderExperiments(exps, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Errorf("post-failover render differs from serial run:\n--- want\n%s--- got\n%s", want, got.String())
	}
}

// completeCell computes one cell with a local runner and reports it to
// the coordinator under the given identity.
func completeCell(t *testing.T, c *Coordinator, r *sim.Runner, workerID, leaseID string, spec sim.CellSpec) {
	t.Helper()
	res, err := r.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, sum, err := sim.MarshalCellResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.complete(CompleteRequest{WorkerID: workerID, LeaseID: leaseID, Cell: spec, Result: b, Sum: sum}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRoundTrip drives a coordinator through completions,
// failures and a quarantine, snapshots it, and checks a second
// coordinator restored from the snapshot (plus the same store) sees
// identical authoritative state.
func TestSnapshotRoundTrip(t *testing.T) {
	opt := fleetOptions()
	dir := t.TempDir()
	st1, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewCoordinator(CoordinatorConfig{
		Opt: opt, Store: st1, Epoch: 1, NodeID: "alpha",
		HeartbeatTimeout: time.Hour, RetryBudget: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRunner(opt)
	reg := a.register(RegisterRequest{Name: "w"})

	// leaseFresh grants a lease whose cell is NOT already in the store.
	// Suite cells can alias (distinct policies resolving to the same
	// simulation key), so completing one cell may prime others; primed
	// grants are completed for free and skipped, keeping the doomed and
	// in-flight cells genuinely absent from the store.
	leaseFresh := func() LeaseResponse {
		t.Helper()
		for {
			g, ok, _ := a.lease(reg.WorkerID, 1)
			if !ok || g.LeaseID == "" {
				t.Fatalf("no leasable cell: %+v", g)
			}
			if !st1.HasCell(opt, g.Cell) {
				return g
			}
			completeCell(t, a, r, reg.WorkerID, g.LeaseID, g.Cell)
		}
	}

	// Complete three cells, fail one to quarantine, leave one in flight.
	for i := 0; i < 3; i++ {
		g := leaseFresh()
		completeCell(t, a, r, reg.WorkerID, g.LeaseID, g.Cell)
	}
	// Quarantine one cell: RetryBudget 2, so two grant+fail cycles spend
	// it. With a single worker the earliest pending cell is re-granted
	// after each failure, so both grants land on the same cell.
	g := leaseFresh()
	doomed := g.Cell
	for i := 0; i < 2; i++ {
		if g.Cell.ID() != doomed.ID() {
			t.Fatalf("doomed re-grant moved to %s, want %s", g.Cell.ID(), doomed.ID())
		}
		a.fail(FailRequest{WorkerID: reg.WorkerID, LeaseID: g.LeaseID, Cell: g.Cell, Error: "injected"})
		if i == 0 {
			var ok bool
			g, ok, _ = a.lease(reg.WorkerID, 1)
			if !ok || g.LeaseID == "" {
				t.Fatalf("doomed re-grant: %+v", g)
			}
		}
	}
	inflight := leaseFresh()

	snap := a.Snapshot()
	if err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil {
		t.Fatal("no snapshot loaded")
	}
	wantJSON, _ := json.Marshal(snap)
	gotJSON, _ := json.Marshal(loaded)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("snapshot did not round-trip its file:\n want %s\n got  %s", wantJSON, gotJSON)
	}

	st2, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCoordinator(CoordinatorConfig{
		Opt: opt, Store: st2, Epoch: 2, NodeID: "beta", Resume: loaded,
		HeartbeatTimeout: time.Hour, RetryBudget: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Stats(), b.Stats()
	// The store outranks the snapshot, and aliased cells prime on the
	// fresh scan, so Done can only grow across a restore.
	if sb.Done < sa.Done {
		t.Fatalf("restore lost completions: a=%+v b=%+v", sa, sb)
	}
	if sb.Quarantined != 1 || sb.QuarantinedCells[0].Cell != doomed.ID() || sb.QuarantinedCells[0].Attempts != 2 {
		t.Fatalf("quarantine not restored: %+v", sb.QuarantinedCells)
	}
	if sb.Leased != 1 {
		t.Fatalf("in-flight lease not restored: %+v", sb)
	}
	if !strings.Contains(strings.Join(sb.QuarantinedCells[0].Errors, " "), "injected") {
		t.Errorf("quarantine errors lost: %+v", sb.QuarantinedCells[0])
	}
	if sb.Reassigned != sa.Reassigned || sb.LateResults != sa.LateResults {
		t.Errorf("counters differ after restore: a=%+v b=%+v", sa, sb)
	}
	// The in-flight lease came back under its ghost worker.
	found := false
	for _, w := range sb.Workers {
		if w.ID == reg.WorkerID && w.ActiveLeases == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("ghost worker %s with the in-flight lease not restored: %+v", reg.WorkerID, sb.Workers)
	}
	// Completing the in-flight lease on the restored coordinator is a
	// normal (not late) completion.
	completeCell(t, b, r, reg.WorkerID, inflight.LeaseID, inflight.Cell)
	if got := b.Stats().LateResults; got != sa.LateResults {
		t.Errorf("restored in-flight completion counted late: %d", got)
	}
}

// TestSnapshotTornTailFallback: a crash mid-snapshot leaves a temp file
// holding half a record beside the previous complete snapshot; the
// previous snapshot still loads, and a coordinator restored from it
// finishes the sweep byte-identical to serial. A bit-flipped snapshot
// fails its checksum and loads as nil, and a coordinator resumes from
// the store alone.
func TestSnapshotTornTailFallback(t *testing.T) {
	opt := fleetOptions()
	want := serialRender(t, opt, []string{"fig11"})
	dir := t.TempDir()
	st1, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewCoordinator(CoordinatorConfig{
		Opt: opt, Store: st1, Epoch: 1, HeartbeatTimeout: time.Hour, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRunner(opt)
	reg := a.register(RegisterRequest{Name: "w"})
	for i := 0; i < 4; i++ {
		g, ok, _ := a.lease(reg.WorkerID, 1)
		if !ok || g.LeaseID == "" {
			t.Fatalf("lease %d: %+v", i, g)
		}
		completeCell(t, a, r, reg.WorkerID, g.LeaseID, g.Cell)
	}
	good := a.Snapshot()
	if err := WriteSnapshot(dir, good); err != nil {
		t.Fatal(err)
	}
	// Crash mid-write of the next snapshot: half a record in the temp
	// file that was never renamed.
	next, err := os.ReadFile(filepath.Join(dir, SnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-"+SnapshotName+"-42"), next[:len(next)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || loaded.Epoch != 1 || loaded.Seq != good.Seq {
		t.Fatalf("torn write not ignored: loaded %+v, want the previous snapshot (seq %d)", loaded, good.Seq)
	}

	// Restore and finish the sweep over HTTP with a real worker.
	st2, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCoordinator(CoordinatorConfig{
		Opt: opt, Store: st2, Epoch: 2, Resume: loaded,
		HeartbeatInterval: 25 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Done; got < 4 {
		t.Fatalf("restored Done = %d, want >= 4 (store replay)", got)
	}
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "finisher", Logf: t.Logf})
	runWorkers(t, b, w)
	var got bytes.Buffer
	if err := b.RenderExperiments([]string{"fig11"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Errorf("post-torn-write render differs from serial run:\n--- want\n%s--- got\n%s", want, got.String())
	}

	// Bit rot in the snapshot: it loads as nil, and the store alone
	// settles every cell.
	path := filepath.Join(dir, SnapshotName)
	rec, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec[len(rec)/2] ^= 0x08
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if loaded, err := LoadSnapshot(dir); loaded != nil || !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("bit-flipped snapshot: loaded %+v, err %v; want nil and a corrupt-record error", loaded, err)
	}
	c, err := NewCoordinator(CoordinatorConfig{Opt: opt, Store: st2, Epoch: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Done != st.Cells || !st.SuiteDone {
		t.Fatalf("coordinator over the store alone: %+v, want every cell done", st)
	}
	got.Reset()
	if err := c.RenderExperiments([]string{"fig11"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Errorf("store-only render differs from serial run:\n--- want\n%s--- got\n%s", want, got.String())
	}
}

// TestElectionIgnoresLegacyLease: a directory holding an unreadable
// coordinator.lease and an old plain-text coordinator.claim.1 — the
// state that used to leave a restarted primary retrying epoch 1 forever
// — reads as a stale epoch 1, and the primary takes epoch 2.
func TestElectionIgnoresLegacyLease(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "coordinator.lease"), []byte("\x00garbage{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "coordinator.claim.1"), []byte("alpha\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h := newTestHA(t, dir, "alpha", false, fleetOptions())
	runHA(t, h)
	waitFor(t, 2*time.Second, "primary to take epoch 2", func() bool {
		return h.Epoch() == 2 && h.Coordinator() != nil
	})
}

// TestElectionTornClaimGoesStale: the newest claim torn by a crash is
// not stolen while its modification time is fresh (a claim still being
// written looks the same), and once it is older than the lease timeout
// a standby claims the next epoch.
func TestElectionTornClaimGoesStale(t *testing.T) {
	dir := t.TempDir()
	b, err := json.Marshal(epochClaim{Node: "alpha", RenewedUnixNano: time.Now().UnixNano()})
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteRecord(claimPath(dir, 1), nil, b); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(claimPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	torn := claimPath(dir, 2)
	if err := os.WriteFile(torn, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	h := newTestHA(t, dir, "beta", true, fleetOptions(), func(c *HAConfig) { c.LeaseTimeout = time.Hour })
	runHA(t, h)
	time.Sleep(10 * h.cfg.LeaseInterval)
	if e := h.Epoch(); e != 0 {
		t.Fatalf("standby took epoch %d from a fresh torn claim", e)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(torn, old, old); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "standby to take epoch 3", func() bool {
		return h.Epoch() == 3 && h.Coordinator() != nil
	})
}

// TestElectionDeposesLivePrimary: once the successor's claim appears, a
// live primary stops serving at its next renewal tick — Coordinator()
// is nil and the fleet protocol answers 503 — and stays standby while
// that claim is fresh.
func TestElectionDeposesLivePrimary(t *testing.T) {
	dir := t.TempDir()
	const interval = 200 * time.Millisecond
	h := newTestHA(t, dir, "alpha", false, fleetOptions(), func(c *HAConfig) {
		c.LeaseInterval = interval
		c.LeaseTimeout = time.Hour
	})
	runHA(t, h)
	waitFor(t, 2*time.Second, "primary to take epoch 1", func() bool {
		return h.Epoch() == 1 && h.Coordinator() != nil
	})
	if err := durable.Claim(claimPath(dir, 2)); err != nil {
		t.Fatalf("claim epoch 2: %v", err)
	}
	claimed := time.Now()
	waitFor(t, 2*time.Second, "primary to stop serving", func() bool { return h.Coordinator() == nil })
	// One renewal tick, plus scheduling slack.
	if elapsed := time.Since(claimed); elapsed > 2*interval {
		t.Errorf("primary served %v after the successor's claim, want at most one lease interval (%v)", elapsed, interval)
	}
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, PathStats, nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("deposed primary answered %d, want 503", rec.Code)
	}
	time.Sleep(2 * interval)
	if e := h.Epoch(); e != 0 || h.Coordinator() != nil {
		t.Errorf("deposed primary is active again at epoch %d while the successor's claim is fresh", e)
	}
}

// TestLeaseTokenContinuityAcrossEpochs is the satellite regression: a
// worker whose heartbeat lapses during failover resumes its lease token
// on the new coordinator with no spurious retry-budget charge and no
// reassignment race, and its completion is a normal (not late) one.
func TestLeaseTokenContinuityAcrossEpochs(t *testing.T) {
	opt := fleetOptions()
	dir := t.TempDir()
	st1, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewCoordinator(CoordinatorConfig{
		Opt: opt, Store: st1, Epoch: 1, HeartbeatTimeout: time.Hour, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	regA := a.register(RegisterRequest{Name: "w"})
	grant, ok, _ := a.lease(regA.WorkerID, 1)
	if !ok || grant.LeaseID == "" {
		t.Fatalf("no lease: %+v", grant)
	}

	snap := a.Snapshot()
	st2, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCoordinator(CoordinatorConfig{
		Opt: opt, Store: st2, Epoch: 2, Resume: snap,
		HeartbeatTimeout: time.Hour, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Old-epoch traffic: grants and heartbeats are fenced, with no side
	// effects on the lease.
	if _, _, stale := b.lease(regA.WorkerID, 1); !stale {
		t.Error("stale-epoch lease request was not fenced")
	}
	if _, stale := b.heartbeat(regA.WorkerID, 1); !stale {
		t.Error("stale-epoch heartbeat was not fenced")
	}

	regB := b.register(RegisterRequest{
		Name: "w",
		Held: []HeldLease{{LeaseID: grant.LeaseID, Cell: grant.Cell, Epoch: 1}},
	})
	if regB.Epoch != 2 {
		t.Errorf("re-register epoch = %d, want 2", regB.Epoch)
	}
	if len(regB.Resumed) != 1 || regB.Resumed[0] != grant.LeaseID {
		t.Fatalf("lease token not resumed: %+v", regB.Resumed)
	}
	st := b.Stats()
	if st.Reassigned != 0 {
		t.Errorf("adoption caused a reassignment: %+v", st.Reassignments)
	}
	// Retry budget untouched: the snapshot's single grant is still the
	// only attempt.
	for _, sc := range b.Snapshot().Cells {
		if sc.ID == grant.Cell.ID() && sc.Attempts != 1 {
			t.Errorf("cell %s attempts = %d after adoption, want 1", sc.ID, sc.Attempts)
		}
	}
	// The adopted lease completes as a normal result under the new
	// identity.
	completeCell(t, b, sim.NewRunner(opt), regB.WorkerID, grant.LeaseID, grant.Cell)
	st = b.Stats()
	if st.LateResults != 0 {
		t.Errorf("adopted completion counted late: %+v", st)
	}
	if st.Done != b.Stats().StorePrimed+1 {
		t.Errorf("cell not done after adopted completion: %+v", st)
	}
}

// TestStaleEpochHTTPStatus pins the wire contract: stale-epoch
// heartbeats and lease requests get 409, unknown workers 410, and
// completions are accepted regardless of epoch.
func TestStaleEpochHTTPStatus(t *testing.T) {
	opt := fleetOptions()
	c, srv := newTestCoordinator(t, CoordinatorConfig{
		Opt: opt, Epoch: 2, HeartbeatTimeout: time.Hour,
	})
	reg := c.register(RegisterRequest{Name: "w"})
	grant, ok, _ := c.lease(reg.WorkerID, 2)
	if !ok || grant.LeaseID == "" {
		t.Fatalf("no lease: %+v", grant)
	}

	post := func(path string, body any) int {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post(PathHeartbeat, HeartbeatRequest{WorkerID: reg.WorkerID, Epoch: 1}); got != http.StatusConflict {
		t.Errorf("stale heartbeat status = %d, want 409", got)
	}
	if got := post(PathLease, LeaseRequest{WorkerID: reg.WorkerID, Epoch: 1}); got != http.StatusConflict {
		t.Errorf("stale lease status = %d, want 409", got)
	}
	if got := post(PathHeartbeat, HeartbeatRequest{WorkerID: "w999", Epoch: 2}); got != http.StatusGone {
		t.Errorf("unknown worker heartbeat status = %d, want 410", got)
	}
	// Completion carries no epoch at all: the result is checksummed and
	// idempotent, so even a fenced worker's report is taken.
	res, err := sim.NewRunner(opt).RunCell(context.Background(), grant.Cell)
	if err != nil {
		t.Fatal(err)
	}
	b, sum, err := sim.MarshalCellResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := post(PathComplete, CompleteRequest{
		WorkerID: reg.WorkerID, LeaseID: grant.LeaseID, Cell: grant.Cell, Result: b, Sum: sum,
	}); got != http.StatusOK {
		t.Errorf("complete status = %d, want 200", got)
	}
}

// TestFleetAuthTokenEnforced wires netauth.Middleware around the fleet
// handler exactly as dtexlcoord does: writes need the token, reads and
// health stay open, and a tokened worker completes the sweep.
func TestFleetAuthTokenEnforced(t *testing.T) {
	opt := fleetOptions()
	st, err := sim.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordinatorConfig{
		Opt: opt, Store: st, HeartbeatInterval: 25 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	const token = "fleet-secret"
	open := netauth.Or(netauth.OpenPaths("/healthz"), netauth.OpenReadOnly)
	srv := httptest.NewServer(netauth.Middleware(token, open, c.Handler()))
	defer srv.Close()

	// Unauthenticated write: rejected.
	resp, err := http.Post(srv.URL+PathRegister, "application/json", strings.NewReader(`{"name":"intruder"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated register status = %d, want 401", resp.StatusCode)
	}
	// Reads stay open.
	resp, err = http.Get(srv.URL + PathStats)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open stats status = %d, want 200", resp.StatusCode)
	}
	// A tokened worker runs the sweep to completion.
	w := NewWorker(WorkerConfig{
		Coordinator: srv.URL,
		Name:        "authed",
		Client:      &http.Client{Transport: &netauth.Transport{Token: token}, Timeout: 5 * time.Minute},
		Logf:        t.Logf,
	})
	runWorkers(t, c, w)
	if st := c.Stats(); !st.SuiteDone || st.Quarantined != 0 {
		t.Fatalf("stats after tokened sweep: %+v", st)
	}
}
