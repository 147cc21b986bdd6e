package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dtexl/internal/fleet"
	"dtexl/internal/sim"
)

const fleetScale = 4

// fleetTransport is one worker's WorkerConfig.Client transport. It
// times every protocol RPC: the gap from a lease reply to the matching
// complete reply is the cell's latency. Traced rounds also record each
// RPC as a span (and tag it so the coordinator-side span can name it),
// plus the compute between lease and complete.
type fleetTransport struct {
	base http.RoundTripper
	rec  *recorder // nil in untraced rounds
	root int64     // the sweep span

	mu       sync.Mutex
	leaseEnd time.Time                  // last lease reply
	leaseID  int64                      // its span: the cell's request ID
	lats     []time.Duration            // one per complete reply
	rtt      map[string][]time.Duration // traced: per protocol path
	compute  []time.Duration            // traced
	idle     int                        // traced: lease replies with no work
}

func (t *fleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	id := t.rec.id()
	if t.rec != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	if err != nil {
		return resp, err
	}
	idle := false
	if t.rec != nil && path == fleet.PathLease {
		// Peek at the reply: an idle grant is a worker with nothing to do.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lr fleet.LeaseResponse
		idle = rerr == nil && json.Unmarshal(body, &lr) == nil && lr.Idle
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	reqID := id
	switch path {
	case fleet.PathLease:
		t.leaseEnd, t.leaseID = end, id
		if idle {
			t.idle++
		}
	case fleet.PathComplete:
		t.lats = append(t.lats, end.Sub(t.leaseEnd))
		if t.rec != nil {
			t.compute = append(t.compute, start.Sub(t.leaseEnd))
			t.rec.add(t.rec.id(), "fleet.compute", t.root, t.leaseID, t.leaseEnd, start)
			reqID = t.leaseID
		}
	}
	if t.rec != nil {
		name := strings.TrimPrefix(path, "/fleet/")
		t.rtt[name] = append(t.rtt[name], end.Sub(start))
		t.rec.add(id, "fleet."+name, t.root, reqID, start, end)
	}
	return resp, nil
}

// fleetSweep is one sweep's fresh coordinator, store and workers.
type fleetSweep struct {
	cells      int
	dir        string
	store      *sim.Store
	coord      *fleet.Coordinator
	hs         *httptest.Server
	workers    []*fleet.Worker
	transports []*fleetTransport

	mu      sync.Mutex
	runners []*sim.Runner
}

// newFleetSweep wires a coordinator and two workers over loopback HTTP,
// the worker runners attached to the shared store exactly as
// `dtexld -coord -store` attaches them.
func newFleetSweep(opt sim.Options, dir string, rec *recorder) (*fleetSweep, error) {
	store, err := sim.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Opt: opt, Store: store})
	if err != nil {
		return nil, err
	}
	f := &fleetSweep{cells: len(sim.SuiteCells(opt)), dir: dir, store: store, coord: coord}
	h := coord.Handler()
	if rec != nil {
		h = spanHandler(rec, func(r *http.Request) string {
			return "coord." + strings.TrimPrefix(r.URL.Path, "/fleet/")
		}, h)
	}
	f.hs = httptest.NewServer(h)
	for i := 0; i < workers; i++ {
		ft := &fleetTransport{
			base: http.DefaultTransport.(*http.Transport).Clone(),
			rec:  rec,
			rtt:  map[string][]time.Duration{},
		}
		f.transports = append(f.transports, ft)
		f.workers = append(f.workers, fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: f.hs.URL,
			Name:        fmt.Sprintf("w%d", i),
			Client:      &http.Client{Transport: ft, Timeout: 5 * time.Minute},
			NewRunner: func(opt sim.Options) *sim.Runner {
				r := sim.NewRunner(opt)
				r.Store = store
				r.RunTimeout = 2 * time.Minute
				f.mu.Lock()
				f.runners = append(f.runners, r)
				f.mu.Unlock()
				return r
			},
		}))
	}
	return f, nil
}

// sweep runs the workers until the coordinator settles every cell and
// returns the time to Coordinator.Done. Workers that were idle when the
// last cell settled are still sleeping a heartbeat; they are cancelled
// and waited for.
func (f *fleetSweep) sweep(ctx context.Context) (time.Duration, error) {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(f.workers))
	var wg sync.WaitGroup
	start := time.Now()
	for i, w := range f.workers {
		wg.Add(1)
		go func(i int, w *fleet.Worker) {
			defer wg.Done()
			errs[i] = w.Run(wctx)
		}(i, w)
	}
	var d time.Duration
	select {
	case <-f.coord.Done():
		d = time.Since(start)
		// The last complete reply may still be on its way back; let it
		// land so its latency is booked before the workers are stopped.
		for wait := time.Now(); f.completes() < f.cells && time.Since(wait) < time.Second; {
			time.Sleep(time.Millisecond)
		}
	case <-ctx.Done():
	}
	cancel()
	wg.Wait()
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return 0, err
		}
	}
	return d, nil
}

// completes counts the complete replies the workers have received.
func (f *fleetSweep) completes() int {
	n := 0
	for _, t := range f.transports {
		t.mu.Lock()
		n += len(t.lats)
		t.mu.Unlock()
	}
	return n
}

func (f *fleetSweep) close() {
	f.hs.Close()
	for _, t := range f.transports {
		t.base.(*http.Transport).CloseIdleConnections()
	}
	// Best effort: runFleet removes the whole store root again at exit.
	_ = os.RemoveAll(f.dir)
}

// runFleet is fleet-sweep: back-to-back sweeps, each with a fresh
// coordinator, shared store and two workers, timed to Done.
func runFleet(ctx context.Context, b *run) error {
	opt := scaledOptions(b.cfg.scaleOr(fleetScale), b.cfg.seed)
	root := filepath.Join(b.cfg.storeRoot, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(root)
	var renders []string
	cells := len(sim.SuiteCells(opt))
	round := 0
	err := b.rounds(func(traced bool) error {
		rec := b.recOf(traced)
		t0 := time.Now()
		f, err := newFleetSweep(opt, filepath.Join(root, strconv.Itoa(round)), rec)
		if err != nil {
			return err
		}
		b.setup(time.Since(t0))
		round++
		defer f.close()

		rootID, endRoot := rec.begin("bench.sweep", 0, 0)
		for _, t := range f.transports {
			t.root = rootID
		}
		m0 := startMem()
		d, err := f.sweep(ctx)
		endRoot()
		if err != nil {
			return err
		}
		st := f.coord.Stats()
		bad := st.Quarantined + st.RejectedResults + st.Reassigned
		var lat []time.Duration
		for _, t := range f.transports {
			lat = append(lat, t.lats...)
		}
		if traced {
			b.endMem(m0)
			if err := fleetLayers(ctx, b, f, opt, st, d, cells); err != nil {
				return err
			}
		}
		b.done(cells-bad, d, d, lat)
		b.attempted += cells
		b.failed += bad

		var buf bytes.Buffer
		if err := f.coord.RenderExperiments(oracleIDs, &buf); err != nil {
			return err
		}
		if b.cfg.corrupt {
			buf.WriteByte('!')
		}
		renders = append(renders, tableDigest(buf.Bytes()))
		return nil
	})
	if err != nil {
		return err
	}
	// The oracle: the same tables from a store-free serial Runner.
	r := sim.NewRunner(opt)
	r.Ctx = ctx
	want, err := renderIDs(r, oracleIDs)
	if err != nil {
		return err
	}
	for _, got := range renders {
		if got != tableDigest(want) {
			b.failed += cells
		}
	}
	return nil
}

// fleetLayers books one traced sweep's per-layer metrics: protocol RTTs
// and compute from the worker transports, coordinator counters, the
// worker runners' Timing, and the simulated counts read back from the
// store.
func fleetLayers(ctx context.Context, b *run, f *fleetSweep, opt sim.Options, st fleet.Stats, d time.Duration, cells int) error {
	meanMS := func(xs []time.Duration) float64 {
		if len(xs) == 0 {
			return 0
		}
		return ms(durSum(xs)) / float64(len(xs))
	}
	rtt := map[string][]time.Duration{}
	var compute []time.Duration
	rpcs, idle := 0, 0
	for _, t := range f.transports {
		for k, v := range t.rtt {
			rtt[k] = append(rtt[k], v...)
			rpcs += len(v)
		}
		compute = append(compute, t.compute...)
		idle += t.idle
	}
	b.mean("fleet.lease_rtt_ms", meanMS(rtt["lease"]))
	b.mean("fleet.complete_rtt_ms", meanMS(rtt["complete"]))
	b.mean("fleet.heartbeat_rtt_ms", meanMS(rtt["heartbeat"]))
	b.mean("fleet.compute_ms", meanMS(compute))
	b.mean("fleet.rpcs_per_cell", float64(rpcs)/float64(cells))
	b.mean("fleet.idle_leases", float64(idle))
	b.mean("fleet.busy_ratio", secs(durSum(compute))/(float64(workers)*secs(d)))
	b.mean("fleet.reassigned", float64(st.Reassigned))
	b.mean("fleet.stolen", float64(st.Stolen))
	b.mean("fleet.late_results", float64(st.LateResults))
	n, err := f.store.Len()
	if err != nil {
		return err
	}
	b.mean("sim.store_entries", float64(n))

	var t sim.Timing
	f.mu.Lock()
	for _, r := range f.runners {
		rt := r.Timing()
		t.Raster += rt.Raster
		t.Coverage += rt.Coverage
		t.Geometry += rt.Geometry
		t.Generate += rt.Generate
	}
	f.mu.Unlock()
	reader := sim.NewRunner(opt)
	reader.Store = f.store
	tot, quads, err := suiteTotals(ctx, reader)
	if err != nil {
		return err
	}
	tot.put(b.layer)
	b.mean("pipeline.raster_s", t.Raster.Seconds())
	if quads > 0 {
		b.mean("pipeline.raster_ns_per_quad", float64(t.Raster)/float64(quads))
	}
	b.mean("pipeline.coverage_s", t.Coverage.Seconds())
	b.mean("pipeline.geometry_s", t.Geometry.Seconds())
	b.mean("trace.generate_s", t.Generate.Seconds())
	return nil
}
