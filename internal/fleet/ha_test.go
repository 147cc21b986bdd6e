package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
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
		NodeID:        node,
		Standby:       standby,
		LeaseInterval: 25 * time.Millisecond,
		LeaseTimeout:  150 * time.Millisecond,
		Logf:          t.Logf,
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

// TestFailoverMidSweepByteIdentical is the failover acceptance: the
// primary coordinator is killed (no handoff) while three workers are
// mid-sweep; the standby fences the epoch, builds its cells from the
// store scan alone, the workers re-register with it, and the finished
// tables are byte-identical to a serial run with zero quarantined
// cells.
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
	// Both nodes write claims into dir until Run returns:
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
	// handoff, connections dropped.
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
	// Duplicate-computation bound (DESIGN.md §14.1): the successor
	// knows only the store, so a cell running at the kill is granted
	// again, and beyond that overlap (at most one cell per worker) every
	// cell is computed once. Aliased cells prime from the store, so the
	// total can run under the cell count.
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

// TestStaleEpochHTTPStatus pins the wire contract: stale-epoch
// heartbeats and lease requests get 409 and change nothing, unknown
// workers 410, and completions are accepted regardless of epoch. A
// report for a lease an earlier-epoch coordinator granted settles its
// cell as a late result, even when this coordinator has granted a lease
// under the same number on another cell.
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
	r := sim.NewRunner(opt)
	report := func(workerID, leaseID string, spec sim.CellSpec) int {
		t.Helper()
		res, err := r.RunCell(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		b, sum, err := sim.MarshalCellResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return post(PathComplete, CompleteRequest{WorkerID: workerID, LeaseID: leaseID, Cell: spec, Result: b, Sum: sum})
	}

	before := c.Stats()
	if got := post(PathHeartbeat, HeartbeatRequest{WorkerID: reg.WorkerID, Epoch: 1}); got != http.StatusConflict {
		t.Errorf("stale heartbeat status = %d, want 409", got)
	}
	if got := post(PathLease, LeaseRequest{WorkerID: reg.WorkerID, Epoch: 1}); got != http.StatusConflict {
		t.Errorf("stale lease status = %d, want 409", got)
	}
	if after := c.Stats(); after.Leased != before.Leased || after.Reassigned != before.Reassigned {
		t.Errorf("stale-epoch requests changed the leases: leased %d -> %d, reassigned %d -> %d",
			before.Leased, after.Leased, before.Reassigned, after.Reassigned)
	}
	if got := post(PathHeartbeat, HeartbeatRequest{WorkerID: "w999", Epoch: 2}); got != http.StatusGone {
		t.Errorf("unknown worker heartbeat status = %d, want 410", got)
	}
	// Completion carries no epoch at all: the result is checksummed and
	// idempotent, so even a fenced worker's report is taken.
	if got := report(reg.WorkerID, grant.LeaseID, grant.Cell); got != http.StatusOK {
		t.Errorf("complete status = %d, want 200", got)
	}

	// An epoch-1 coordinator over the same store numbers its leases from
	// 1 again: grant there until it hands out the number of this
	// coordinator's live lease, on a cell of its own.
	live, ok, _ := c.lease(reg.WorkerID, 2)
	if !ok || live.LeaseID == "" {
		t.Fatalf("no second lease: %+v", live)
	}
	old, err := NewCoordinator(CoordinatorConfig{
		Opt: opt, Store: c.cfg.Store, Epoch: 1, HeartbeatTimeout: time.Hour, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	oldReg := old.register(RegisterRequest{Name: "w"})
	number := func(id string) string { return id[strings.LastIndexByte(id, '.')+1:] }
	var oldGrant LeaseResponse
	for oldGrant.LeaseID == "" || number(oldGrant.LeaseID) != number(live.LeaseID) {
		if oldGrant, ok, _ = old.lease(oldReg.WorkerID, 1); !ok || oldGrant.LeaseID == "" {
			t.Fatalf("epoch-1 coordinator granted no lease: %+v", oldGrant)
		}
	}
	if oldGrant.Cell.ID() == live.Cell.ID() {
		t.Fatalf("both coordinators granted %s on %s; the test needs two cells", live.LeaseID, live.Cell.ID())
	}
	before = c.Stats()
	if got := report(oldReg.WorkerID, oldGrant.LeaseID, oldGrant.Cell); got != http.StatusOK {
		t.Errorf("earlier-epoch complete status = %d, want 200", got)
	}
	after := c.Stats()
	if after.LateResults != before.LateResults+1 || after.Done != before.Done+1 {
		t.Errorf("earlier-epoch report of %s: late %d -> %d, done %d -> %d; want the cell settled as a late result",
			oldGrant.Cell.ID(), before.LateResults, after.LateResults, before.Done, after.Done)
	}
	if after.Leased != 1 {
		t.Errorf("leased = %d after the earlier-epoch report, want 1: lease %s on %s stays live", after.Leased, live.LeaseID, live.Cell.ID())
	}
}

// TestReportsFromAnEarlierCoordinator: every coordinator numbers its
// workers and leases in grant order, and reports carry no epoch. Two
// coordinators over empty stores, at epochs 1 and 2 (a failover) or both
// at epoch 0 and started a minute apart (a restart without HA), each
// lease TRu/baseline to their first worker under the same number. The
// earlier coordinator's fail report, and its completion with a bad
// checksum, sent to the later one must leave that coordinator's lease
// live. Unscoped, both grants would be w1/l2, and the fail report
// would release the lease for "failure".
func TestReportsFromAnEarlierCoordinator(t *testing.T) {
	for _, tc := range []struct {
		name   string
		epochs [2]uint64
	}{{"failover", [2]uint64{1, 2}}, {"restart", [2]uint64{0, 0}}} {
		t.Run(tc.name, func(t *testing.T) {
			var cs [2]*Coordinator
			var regs [2]RegisterResponse
			var grants [2]LeaseResponse
			for i, epoch := range tc.epochs {
				now := time.Unix(1_700_000_000, 0).Add(time.Duration(i) * time.Minute)
				cs[i], _ = newTestCoordinator(t, CoordinatorConfig{
					Epoch: epoch, HeartbeatTimeout: time.Hour, now: func() time.Time { return now },
				})
				regs[i] = cs[i].register(RegisterRequest{Name: "w"})
				g, ok, _ := cs[i].lease(regs[i].WorkerID, epoch)
				if !ok || g.LeaseID == "" || g.Cell.ID() != "TRu/baseline" {
					t.Fatalf("coordinator %d granted %+v, want a lease on TRu/baseline", i, g)
				}
				grants[i] = g
			}
			number := func(id string) string { return id[strings.LastIndexByte(id, '.')+1:] }
			if number(grants[0].LeaseID) != number(grants[1].LeaseID) {
				t.Fatalf("leases %s and %s carry different numbers; the test needs the same", grants[0].LeaseID, grants[1].LeaseID)
			}
			if grants[0].LeaseID == grants[1].LeaseID || regs[0].WorkerID == regs[1].WorkerID {
				t.Errorf("both coordinators issued worker %s and lease %s", regs[1].WorkerID, grants[1].LeaseID)
			}

			later := cs[1]
			later.fail(FailRequest{WorkerID: regs[0].WorkerID, LeaseID: grants[0].LeaseID, Cell: grants[0].Cell, Error: "injected"})
			if st := later.Stats(); st.Leased != 1 || st.Reassigned != 0 {
				t.Fatalf("earlier fail report of %s: leased %d, reassigned %d (%+v); want 1, 0",
					grants[0].LeaseID, st.Leased, st.Reassigned, st.Reassignments)
			}
			payload := []byte(`{"Metrics":{}}`)
			if err := later.complete(CompleteRequest{
				WorkerID: regs[0].WorkerID, LeaseID: grants[0].LeaseID, Cell: grants[0].Cell, Result: payload, Sum: "bad",
			}); err == nil {
				t.Fatal("completion with a bad checksum accepted")
			}
			if st := later.Stats(); st.Leased != 1 || st.Reassigned != 0 || st.RejectedResults != 1 {
				t.Errorf("earlier rejected completion of %s: leased %d, reassigned %d, rejected %d; want 1, 0, 1",
					grants[0].LeaseID, st.Leased, st.Reassigned, st.RejectedResults)
			}
		})
	}
}

// TestWorkerRegistersOncePerRefusal: a coordinator that holds a
// worker's heartbeat and its lease request and then refuses both with
// 409, as a successor answers a worker's first requests after a
// failover, gets exactly one more registration from it.
func TestWorkerRegistersOncePerRefusal(t *testing.T) {
	var regs atomic.Int64
	held := make(chan struct{}, 2)
	release := make(chan struct{})
	var beatNew, leaseNew atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathRegister {
			writeJSON(w, http.StatusOK, RegisterResponse{
				WorkerID: fmt.Sprintf("w%d", regs.Add(1)), Epoch: 1, HeartbeatIntervalMS: 10, Options: fleetOptions(),
			})
			return
		}
		var req HeartbeatRequest // a lease request has the same fields
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.WorkerID == "w1" {
			select {
			case held <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-r.Context().Done():
				return // the test gave up and stopped the worker
			}
			http.Error(w, "stale epoch; re-register", http.StatusConflict)
			return
		}
		if r.URL.Path == PathHeartbeat {
			beatNew.Store(true)
			return
		}
		leaseNew.Store(true)
		writeJSON(w, http.StatusOK, LeaseResponse{Idle: true, RetryMS: 10})
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(t.Context())
	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "a", Logf: t.Logf})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-stopped
	}()
	for range 2 {
		select {
		case <-held:
		case <-time.After(10 * time.Second):
			t.Fatal("the worker's heartbeat and lease request never both arrived")
		}
	}
	close(release)
	// Both loops are past their refusal once each has sent a request
	// under a new identity.
	waitFor(t, 10*time.Second, "a heartbeat and a lease request under a new identity", func() bool {
		return beatNew.Load() && leaseNew.Load()
	})
	if n := regs.Load(); n != 2 {
		t.Errorf("%d registrations, want 2: one at start and one for the refused identity", n)
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
