package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/trace"
)

// TestMemoHitSkipsAdmission: admission bounds simulation work, and a
// memo hit does none. With the lone full-lane slot held and the waiting
// room full, a warm cell is still answered at full fidelity: nothing is
// shed, no flight starts and nothing is computed. A drain still turns
// it away.
func TestMemoHitSkipsAdmission(t *testing.T) {
	cfg := testConfig()
	s, ts := newTestServer(t, cfg)
	warm := SimRequest{Benchmark: "TRu", Policy: "DTexL"}
	if st, _, _, _ := post(t, ts.URL, warm); st != http.StatusOK {
		t.Fatalf("warming request: status %d", st)
	}

	release, err := s.full.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	parkCtx, parkCancel := context.WithCancel(context.Background())
	defer parkCancel()
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		if rel, err := s.full.admit(parkCtx); err == nil {
			rel()
		}
	}()
	for i := 0; s.full.waiting.Load() == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	if st := s.full.statsSnapshot(); st.Active != 1 || st.Waiting != int64(st.Queue) {
		t.Fatalf("full lane not saturated: %+v", st)
	}

	shed, flights, joined, served := s.full.shed.Load(), s.flights.started.Load(), s.flights.joined.Load(), s.served.Load()
	for _, req := range []SimRequest{
		{Benchmark: "TRu", Policy: "DTexL", TimeoutMS: 200},
		{Benchmark: "TRu", Policy: "DTexL", TimeoutMS: 200, Degradable: true},
		// HLB-flp2 configures DTexL's machine: the same memo entry.
		{Benchmark: "TRu", Policy: "HLB-flp2", TimeoutMS: 200},
	} {
		st, res, eres, _ := post(t, ts.URL, req)
		if st != http.StatusOK {
			t.Fatalf("warm %+v under a saturated lane: status %d (%+v), want 200", req, st, eres)
		}
		if res.Degraded || res.Scale != cfg.Scale || res.Policy != req.Policy || res.Metrics == nil {
			t.Errorf("warm %+v: response %+v", req, res)
		}
	}
	if got := s.full.shed.Load(); got != shed {
		t.Errorf("Full.Shed %d → %d: a memo hit took an admission slot", shed, got)
	}
	if f, j := s.flights.started.Load(), s.flights.joined.Load(); f != flights || j != joined {
		t.Errorf("flights %d → %d, coalesced %d → %d: a memo hit went through the coalescer", flights, f, joined, j)
	}
	if got := s.served.Load(); got != served+3 {
		t.Errorf("served %d → %d, want +3", served, got)
	}
	if got := s.simsComputed(); got != 1 {
		t.Errorf("simulations computed = %d, want 1", got)
	}
	if st := s.full.statsSnapshot(); st.Active != 1 || st.Waiting != int64(st.Queue) {
		t.Errorf("full lane changed under memo hits: %+v", st)
	}

	s.BeginDrain()
	if st, _, eres, _ := post(t, ts.URL, warm); st != http.StatusServiceUnavailable || eres.Kind != KindDraining {
		t.Errorf("memo hit during a drain: status %d, want 503 draining", st)
	}
	parkCancel()
	<-parked
}

// TestConcurrentRequestsShareOneTail: concurrent requests for one cell
// — joiners of its flight, then memo hits racing each other — all get
// the same body but for elapsed_ms, from one simulation and one stored
// tail.
func TestConcurrentRequestsShareOneTail(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	body, _ := json.Marshal(SimRequest{Benchmark: "CCS", Policy: "DTexL"})
	elapsed := regexp.MustCompile(`"elapsed_ms":[^,]*`)
	const clients, rounds = 8, 5
	bodies := make(chan []byte, clients*rounds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				hres, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				raw, err := io.ReadAll(hres.Body)
				hres.Body.Close()
				if err != nil || hres.StatusCode != http.StatusOK {
					t.Errorf("status %d, %v", hres.StatusCode, err)
					return
				}
				bodies <- elapsed.ReplaceAll(raw, []byte(`"elapsed_ms":0`))
			}
		}()
	}
	wg.Wait()
	close(bodies)
	var first []byte
	for b := range bodies {
		if first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Fatalf("bodies differ:\n%s\n%s", first, b)
		}
	}
	tails := 0
	s.tails.Range(func(_, _ any) bool { tails++; return true })
	if got := s.simsComputed(); got != 1 || tails != 1 {
		t.Errorf("%d simulations and %d stored tails, want 1 and 1", got, tails)
	}
}

// TestResultBodyMatchesEncoder: the 200 body is the envelope plus the
// once-encoded tail, and it must equal json.Encoder's encoding of the
// whole SimResponse byte for byte — first use and reuse of the tail, for
// a coupled cell with per-tile arrays, a decoupled cell, a degraded
// response and a two-frame run.
func TestResultBodyMatchesEncoder(t *testing.T) {
	s := New(testConfig())
	cases := []struct {
		name     string
		sr       SimRequest
		scale    int
		degraded bool
	}{
		{"coupled", SimRequest{Benchmark: "TRu", Policy: "baseline", Frames: 1}, 8, false},
		{"decoupled", SimRequest{Benchmark: "CCS", Policy: "DTexL", Frames: 1}, 8, false},
		{"degraded", SimRequest{Benchmark: "TRu", Policy: "baseline", Scale: 8, Frames: 1, Degradable: true}, 16, true},
		{"frames-2", SimRequest{Benchmark: "TRu", Policy: "baseline-decoupled", Frames: 2}, 8, false},
	}
	for _, c := range cases {
		pol := mustPolicy(t, c.sr.Policy)
		res, err := s.runner(c.scale, c.sr.Frames).RunOneCtx(context.Background(), c.sr.Benchmark, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.name == "coupled" && len(res.Metrics.TileTimeDeviation) == 0 {
			t.Fatal("coupled cell has no per-tile arrays")
		}
		for _, elapsed := range []float64{12.3456789, 0.000125, 3e-7, 250000, 0} {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(SimResponse{
				Benchmark: c.sr.Benchmark,
				Policy:    pol.Name,
				Scale:     c.scale,
				Frames:    c.sr.Frames,
				Degraded:  c.degraded,
				ElapsedMS: elapsed,
				FPS:       res.Metrics.FPS,
				Metrics:   res.Metrics,
				Energy:    res.Energy,
			}); err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				rec := httptest.NewRecorder()
				s.writeResult(rec, &c.sr, res, c.scale, c.degraded, elapsed)
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
					t.Fatalf("%s, elapsed %v, pass %d: status %d, body\n%s\nwant\n%s", c.name, elapsed, pass, rec.Code, rec.Body.Bytes(), want.Bytes())
				}
				if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
					t.Errorf("%s: Content-Length %q, want %d", c.name, got, want.Len())
				}
			}
		}
	}
}

// TestAppendFloatMatchesEncoder: elapsed_ms is formatted as
// encoding/json formats a float64, across both of its notations.
func TestAppendFloatMatchesEncoder(t *testing.T) {
	vals := []float64{0, 1, -1, 0.1, 12.3456789, 1e-6, 9.99e-7, 1e-7, 1.5e-10, 1e20, 1e21, 1.234e25, 123456789.123, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i := 0; i < 200; i++ {
		vals = append(vals, math.Float64frombits(uint64(i)*0x9e3779b97f4a7c15>>1))
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			continue // NaN or Inf: never an elapsed time
		}
		if got := appendFloat(nil, v); string(got) != string(want) {
			t.Errorf("appendFloat(%v) = %s, want %s", v, got, want)
		}
	}
}

// TestEnvelopeNamesNeedNoEscaping: writeResult writes the benchmark
// alias and policy name without escaping, which is right only while
// JSON writes every one of them as itself.
func TestEnvelopeNamesNeedNoEscaping(t *testing.T) {
	for _, name := range append(trace.Aliases(), core.PolicyNames()...) {
		if q, _ := json.Marshal(name); string(q) != `"`+name+`"` {
			t.Errorf("name %q encodes as %s", name, q)
		}
	}
}

// TestSimulateBodyHasContentLength: a 200 body is assembled before it is
// written, so it goes out with a Content-Length rather than chunked, on
// the flight path and the memo path alike.
func TestSimulateBodyHasContentLength(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	body, _ := json.Marshal(SimRequest{Benchmark: "TRu", Policy: "baseline"})
	for _, path := range []string{"flight", "memo"} {
		hres, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(hres.Body)
		hres.Body.Close()
		if err != nil || hres.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", path, hres.StatusCode, err)
		}
		if hres.ContentLength != int64(len(raw)) || len(hres.TransferEncoding) != 0 {
			t.Errorf("%s: ContentLength %d, Transfer-Encoding %v for a %d-byte body", path, hres.ContentLength, hres.TransferEncoding, len(raw))
		}
	}
}
