package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"testing"

	"dtexl/internal/cache"
	"dtexl/internal/pipeline"
	"dtexl/internal/render"
	"dtexl/internal/serve"
)

// serverBodies returns real 200 bodies of the service at the given
// scale: a coupled cell (per-tile arrays), a decoupled cell, a
// two-frame cell, the coupled cell again from the memo, and that body
// marked degraded at a coarser scale, as the overload lane writes it.
func serverBodies(tb testing.TB, scale int) [][]byte {
	tb.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{Scale: scale, Seed: 1, Concurrency: 1}).Handler())
	defer ts.Close()
	var bodies [][]byte
	for _, req := range []serve.SimRequest{
		{Benchmark: "TRu", Policy: "baseline"},
		{Benchmark: "CCS", Policy: "DTexL"},
		{Benchmark: "SWa", Policy: "baseline-decoupled", Frames: 2},
		{Benchmark: "TRu", Policy: "baseline"},
	} {
		body, _ := json.Marshal(req)
		hres, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		raw, err := io.ReadAll(hres.Body)
		hres.Body.Close()
		if err != nil || hres.StatusCode != http.StatusOK {
			tb.Fatalf("%+v: status %d, %v", req, hres.StatusCode, err)
		}
		bodies = append(bodies, raw)
	}
	envelope := fmt.Sprintf(`"scale":%d,"frames":1,"degraded":false`, scale)
	degraded := fmt.Sprintf(`"scale":%d,"frames":1,"degraded":true`, 2*scale)
	return append(bodies, bytes.Replace(bodies[0], []byte(envelope), []byte(degraded), 1))
}

// fullBody is a body that populates every part of a SimResponse the
// serving path leaves empty (intervals, timeline, render target), with
// extreme numbers, so the walk meets every kind of its plan.
func fullBody(tb testing.TB) []byte {
	tb.Helper()
	var m pipeline.Metrics
	m.Config = pipeline.DefaultConfig()
	m.Config.RenderTarget = render.NewFramebuffer(2, 3)
	m.Cycles = math.MinInt64
	m.FPS = 1e-7
	m.Events.QuadsShaded = math.MaxUint64
	m.PerSCQuads = []uint64{}
	m.TileTimeDeviation = []float64{0, -0.5, 1e21, 2.5e-300}
	m.Timeline = []pipeline.TileTiming{{Seq: 1, TX: 2, TY: 3, Gate: -4, Finish: []int64{5, 6}}, {}}
	m.Intervals = []pipeline.Interval{{Cycle: 7, Occupancy: []int32{-1, math.MaxInt32}, L2: cache.Stats{Hits: 9}}}
	m.SCBreakdown = make([]pipeline.SCBreakdown, 4)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(serve.SimResponse{Benchmark: "TRu", Policy: "DTexL", Scale: 1, Frames: 4, ElapsedMS: 1.5e-9, FPS: m.FPS, Metrics: &m}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sameAsUnmarshal decodes data both ways and fails t unless the values
// are deeply equal and both or neither returned an error.
func sameAsUnmarshal(t *testing.T, data []byte) (fast bool, err error) {
	t.Helper()
	var got, want serve.SimResponse
	fast, err = decode(data, &got)
	werr := json.Unmarshal(data, &want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("decode error %v, json.Unmarshal error %v, for %q", err, werr, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode differs from json.Unmarshal for %q:\n got %+v\nwant %+v", data, got, want)
	}
	return fast, err
}

// TestDecodeServerBodiesFast: every body the server writes takes the
// fixed-order walk, with no fallback — a silent fallback would keep the
// output right and lose the speed.
func TestDecodeServerBodiesFast(t *testing.T) {
	for i, b := range append(serverBodies(t, 16), fullBody(t)) {
		if fast, err := sameAsUnmarshal(t, b); !fast || err != nil {
			t.Errorf("body %d fell back to json.Unmarshal (err %v):\n%s", i, err, b)
		}
	}
}

// TestDecodeFallsBackOffShape: the walk accepts only JSON's strict
// grammar in the server's exact shape; every other body goes to
// json.Unmarshal and decodes exactly as it always has.
func TestDecodeFallsBackOffShape(t *testing.T) {
	body, full := serverBodies(t, 16)[0], fullBody(t)
	sub := func(pattern, repl string) []byte {
		re := regexp.MustCompile(pattern)
		loc := re.FindIndex(body)
		if loc == nil {
			t.Fatalf("pattern %q not in the body", pattern)
		}
		return append(append(append([]byte{}, body[:loc[0]]...), repl...), body[loc[1]:]...)
	}
	cases := []struct {
		name      string
		data      []byte
		fast, err bool
	}{
		{"plus sign", sub(`"scale":16`, `"scale":+16`), false, true},
		{"leading zero", sub(`"scale":16`, `"scale":016`), false, true},
		{"bare point", sub(`"elapsed_ms":[^,]*`, `"elapsed_ms":1.`), false, true},
		{"no integer part", sub(`"elapsed_ms":[^,]*`, `"elapsed_ms":.5`), false, true},
		{"bare exponent", sub(`"elapsed_ms":[^,]*`, `"elapsed_ms":1e`), false, true},
		{"exponent", sub(`"elapsed_ms":[^,]*`, `"elapsed_ms":-0.25E+2`), true, false},
		{"fraction into int", sub(`"scale":16`, `"scale":16.0`), false, true},
		{"int overflow", sub(`"scale":16`, `"scale":99999999999999999999`), false, true},
		{"negative uint", sub(`"PerSCQuads":\[`, `"PerSCQuads":[-1,`), false, true},
		{"float overflow", sub(`"fps":[^,]*`, `"fps":1e400`), false, true},
		{"escape", sub(`"benchmark":"TRu"`, `"benchmark":"T\u0052u"`), false, false},
		{"control byte", sub(`"benchmark":"TRu"`, "\"benchmark\":\"T\tRu\""), false, true},
		{"non-ASCII", sub(`"benchmark":"TRu"`, `"benchmark":"TRü"`), false, false},
		{"trailing data", append(append([]byte{}, body...), 'x'), false, true},
		{"second value", append(append([]byte{}, body...), "{}"...), false, true},
		{"trailing space", append(append([]byte{}, body...), " \t\r\n"...), true, false},
		{"no newline", body[:len(body)-1], true, false},
		{"inner space", sub(`"scale":16`, `"scale": 16`), false, false},
		{"leading space", append([]byte(" "), body...), false, false},
		{"key case", sub(`"scale":16`, `"Scale":16`), false, false},
		{"missing key", sub(`"degraded":false,`, ``), false, false},
		{"extra key", sub(`"degraded":false,`, `"degraded":false,"extra":1,`), false, false},
		{"duplicate key", sub(`"degraded":false,`, `"degraded":true,"degraded":false,`), false, false},
		{"swapped keys", sub(`"benchmark":"TRu","policy":"baseline"`, `"policy":"baseline","benchmark":"TRu"`), false, false},
		{"null metrics", sub(`"metrics":\{.*\},"energy"`, `"metrics":null,"energy"`), true, false},
		{"null slice", sub(`"PerSCQuads":\[[^\]]*\]`, `"PerSCQuads":null`), true, false},
		{"empty slice", sub(`"PerSCQuads":\[[^\]]*\]`, `"PerSCQuads":[]`), true, false},
		{"null int", sub(`"scale":16`, `"scale":null`), true, false},
		{"bad literal", sub(`"degraded":false`, `"degraded":nul`), false, true},
		{"string into int", sub(`"scale":16`, `"scale":"16"`), false, true},
		{"truncated", body[:len(body)/2], false, true},
		{"int32 overflow", bytes.Replace(full, []byte("2147483647"), []byte("2147483648"), 1), false, true},
		{"int32 limit", full, true, false},
		{"top-level null", []byte("null"), true, false},
		{"empty", nil, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fast, err := sameAsUnmarshal(t, c.data)
			if fast != c.fast || (err != nil) != c.err {
				t.Errorf("fast %v, error %v; want fast %v, error %v", fast, err, c.fast, c.err)
			}
		})
	}
	var out serve.SimResponse
	if _, err := decode(sub(`"PerSCQuads":\[[^\]]*\]`, `"PerSCQuads":[]`), &out); err != nil || out.Metrics.PerSCQuads == nil || len(out.Metrics.PerSCQuads) != 0 {
		t.Errorf("[] decoded to %#v, %v; want an empty, non-nil slice", out.Metrics.PerSCQuads, err)
	}
}

// TestPlanRefusesWhatItCannotMatch: types json.Unmarshal decodes by
// rules the walk does not implement get no plan, so their bodies always
// take json.Unmarshal.
func TestPlanRefusesWhatItCannotMatch(t *testing.T) {
	type inner struct{ A int }
	type node struct{ Next *node }
	for _, v := range []any{
		struct{ M map[string]int }{},
		struct{ I any }{},
		struct{ A [2]int }{},
		struct{ B []byte }{},
		struct{ N json.Number }{},
		struct{ R json.RawMessage }{},
		struct{ inner }{},
		struct {
			X int
			Y int `json:"X"`
		}{},
		struct {
			A int `json:",string"`
		}{},
		struct {
			A int `json:"a b"`
		}{},
		node{},
	} {
		if p := planOf(reflect.TypeOf(v)); p != nil {
			t.Errorf("%T got a plan", v)
		}
	}
	if planOf(reflect.TypeOf(serve.SimResponse{})) == nil {
		t.Error("SimResponse has no plan")
	}
}

// FuzzDecodeSimResponse: whatever the bytes, decode returns exactly
// what json.Unmarshal returns — the same value and an error exactly when
// it errs — starting from the server's real bodies.
func FuzzDecodeSimResponse(f *testing.F) {
	for _, b := range append(serverBodies(f, 16), fullBody(f)) {
		f.Add(b)
	}
	f.Add([]byte(`{"benchmark":"TRu","policy":"DTexL","scale":+1,"frames":01,"degraded":false,"elapsed_ms":1.,"fps":.5,"metrics":null,"energy":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsUnmarshal(t, data)
	})
}

// BenchmarkDecodeSimResponse compares the walk with json.Unmarshal on
// the server's bodies at scale 4, the serving default.
func BenchmarkDecodeSimResponse(b *testing.B) {
	bodies := serverBodies(b, 4)
	for _, c := range []struct {
		name string
		body []byte
	}{{"coupled", bodies[0]}, {"decoupled", bodies[1]}} {
		b.Run(c.name+"/walk", func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			for i := 0; i < b.N; i++ {
				var out serve.SimResponse
				if fast, err := decode(c.body, &out); !fast || err != nil {
					b.Fatal("fell back")
				}
			}
		})
		b.Run(c.name+"/unmarshal", func(b *testing.B) {
			b.SetBytes(int64(len(c.body)))
			for i := 0; i < b.N; i++ {
				var out serve.SimResponse
				if err := json.Unmarshal(c.body, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
