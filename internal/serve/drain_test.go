package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"dtexl/internal/sim"
)

// TestDrainUnderLoadLosesNothing is the drain acceptance test: with
// requests in flight, BeginDrain must let them finish (no killed work,
// no lost store entries) while rejecting new arrivals; a restarted
// server over the same store then answers the drained cells from it
// without recomputing.
func TestDrainUnderLoadLosesNothing(t *testing.T) {
	dir := t.TempDir()
	store, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.Logf = t.Logf
	cfg := testConfig()
	cfg.Store = store
	s, ts := newTestServer(t, cfg)

	// Two distinct cells fill the lane exactly (1 slot + 1 queued).
	cells := []SimRequest{
		{Benchmark: "TRu", Policy: "baseline"},
		{Benchmark: "CCS", Policy: "DTexL"},
	}
	type reply struct {
		req    SimRequest
		status int
		res    *SimResponse
	}
	replies := make(chan reply, len(cells))
	var wg sync.WaitGroup
	for _, req := range cells {
		wg.Add(1)
		go func(req SimRequest) {
			defer wg.Done()
			st, res, _, _ := post(t, ts.URL, req)
			replies <- reply{req, st, res}
		}(req)
	}

	// Drain as soon as the load is visibly in flight. (If both cells
	// finish before we observe them the drain is trivially clean; the
	// store assertions below still hold.)
	for i := 0; s.InFlightRequests() < int64(len(cells)) && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	s.BeginDrain()

	// New arrivals are rejected while the drain runs...
	status, _, eres, _ := post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "DTexL"})
	if status != http.StatusServiceUnavailable || eres.Kind != KindDraining {
		t.Fatalf("request during drain: status %d kind %q, want 503 draining", status, eres.Kind)
	}

	// ...but in-flight work completes normally.
	wg.Wait()
	firstRun := make(map[string]*SimResponse)
	for range cells {
		r := <-replies
		if r.status != http.StatusOK || r.res.Metrics == nil {
			t.Fatalf("in-flight request killed by drain: %s/%s status %d", r.req.Benchmark, r.req.Policy, r.status)
		}
		firstRun[r.req.Benchmark+"/"+r.req.Policy] = r.res
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.AwaitIdle(ctx); err != nil {
		t.Fatalf("drain did not go idle: %v", err)
	}

	// Zero lost store entries: every completed cell is on disk.
	store2, err := sim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store2.Logf = t.Logf
	if n, err := store2.Len(); err != nil || n != len(cells) {
		t.Fatalf("store holds %d entries after drain (%v), want %d", n, err, len(cells))
	}

	// A restarted server over the store serves the drained cells from it
	// — same bytes, no recomputation.
	cfg2 := testConfig()
	cfg2.Store = store2
	_, ts2 := newTestServer(t, cfg2)
	hitsBefore := store2.Stats().Hits
	for _, req := range cells {
		st, res, _, _ := post(t, ts2.URL, req)
		if st != http.StatusOK {
			t.Fatalf("restarted server: %s/%s status %d", req.Benchmark, req.Policy, st)
		}
		want, _ := json.Marshal(firstRun[req.Benchmark+"/"+req.Policy].Metrics)
		got, _ := json.Marshal(res.Metrics)
		if string(want) != string(got) {
			t.Errorf("%s/%s: restarted metrics differ from pre-drain run:\n got %s\nwant %s", req.Benchmark, req.Policy, got, want)
		}
	}
	if hits := store2.Stats().Hits; hits != hitsBefore+uint64(len(cells)) {
		t.Errorf("store hits %d → %d, want +%d: restarted server recomputed instead of serving the store", hitsBefore, hits, len(cells))
	}

	// /readyz reports the store picture for operators.
	hres, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rs ReadyState
	json.NewDecoder(hres.Body).Decode(&rs)
	hres.Body.Close()
	if rs.Store == nil || rs.Store.Hits == 0 {
		t.Errorf("/readyz store stats = %+v, want hits > 0", rs.Store)
	}
}

// TestNoGoroutineLeaks runs the request mix that exercises every
// admission path — success, shed, deadline-while-queued, drain — then
// checks the goroutine count settles back to its baseline. A hand-
// rolled leak check: the container has no goleak, and a polled count
// with tolerance catches the classes of leak this server could produce
// (stuck waiters, undrained lanes, orphaned AwaitIdle watchers).
func TestNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	func() {
		cfg := testConfig()
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		// Success path (also warms the memo).
		if st, _, _, _ := post(t, ts.URL, SimRequest{Benchmark: "TRu", Policy: "baseline"}); st != http.StatusOK {
			t.Fatalf("warm request status %d", st)
		}
		// Shed path: hold the slot, blast past capacity.
		release, err := s.full.admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Distinct uncached cell; most shed, one queues then times out.
				post(t, ts.URL, SimRequest{Benchmark: "CCS", Policy: "baseline", TimeoutMS: 100})
			}()
		}
		wg.Wait()
		release()
		// Drain path.
		s.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.AwaitIdle(ctx); err != nil {
			t.Fatalf("AwaitIdle: %v", err)
		}
	}()

	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC() // finalize dead conns promptly
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
}
