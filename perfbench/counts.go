package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"dtexl/internal/cache"
	"dtexl/internal/core"
	"dtexl/internal/pipeline"
	"dtexl/internal/sim"
	"dtexl/internal/trace"
)

// counters is the exact simulated record of one cell: every count a
// simulator speed-up must leave identical. Floating-point outputs (FPS,
// energy) derive from these.
type counters struct {
	Cycles         int64
	GeometryCycles int64
	RasterCycles   int64
	Events         pipeline.EventCounts
	PerSCQuads     []uint64
	PerSCBusy      []int64
	L1Tex, L2      cache.Stats
}

func countersOf(m *pipeline.Metrics) counters {
	return counters{
		Cycles: m.Cycles, GeometryCycles: m.GeometryCycles, RasterCycles: m.RasterCycles,
		Events: m.Events, PerSCQuads: m.PerSCQuads, PerSCBusy: m.PerSCBusy,
		L1Tex: m.L1Tex, L2: m.L2,
	}
}

// equal compares two records field by field; it runs once per response,
// so it avoids reflection.
func (c counters) equal(o counters) bool {
	return c.Cycles == o.Cycles && c.GeometryCycles == o.GeometryCycles &&
		c.RasterCycles == o.RasterCycles && c.Events == o.Events &&
		c.L1Tex == o.L1Tex && c.L2 == o.L2 &&
		slices.Equal(c.PerSCQuads, o.PerSCQuads) && slices.Equal(c.PerSCBusy, o.PerSCBusy)
}

// digest is a short, stable fingerprint of the counters.
func (c counters) digest() string {
	b, _ := json.Marshal(c) // plain integers and slices; cannot fail
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// tableDigest fingerprints rendered tables.
func tableDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cell names one (benchmark, policy) request.
type cell struct{ Bench, Policy string }

func (c cell) String() string { return c.Bench + "/" + c.Policy }

// variants tallies the distinct counter records returned for each cell,
// so thousands of responses are checked with an equality test each and
// judged against the reference once, after the measurement.
type variants struct {
	mu   sync.Mutex
	byID map[cell][]variant
}

type variant struct {
	c counters
	n int
}

func (v *variants) add(c cell, got counters) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.byID == nil {
		v.byID = make(map[cell][]variant)
	}
	vs := v.byID[c]
	for i := range vs {
		if vs[i].c.equal(got) {
			vs[i].n++
			return
		}
	}
	v.byID[c] = append(vs, variant{got, 1})
}

// wrong counts responses whose counters differ from what want accepts.
func (v *variants) wrong(want func(cell, counters) bool) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	bad := 0
	for c, vs := range v.byID {
		for _, x := range vs {
			if !want(c, x.c) {
				bad += x.n
			}
		}
	}
	return bad
}

// totals sums the simulated counts the traced run reports per layer.
type totals struct {
	cycles, quads, l1Acc, l1Hits, l2Acc, dram uint64
}

func (t *totals) add(c counters) {
	t.cycles += uint64(c.Cycles)
	t.quads += c.Events.QuadsShaded
	t.l1Acc += c.L1Tex.Accesses
	t.l1Hits += c.L1Tex.Hits
	t.l2Acc += c.L2.Accesses
	t.dram += c.Events.DRAMAccesses
}

func (t totals) put(l map[string]float64) {
	l["pipeline.cycles"] = float64(t.cycles)
	l["pipeline.quads_shaded"] = float64(t.quads)
	if t.l1Acc > 0 {
		l["cache.l1tex_hit_rate"] = float64(t.l1Hits) / float64(t.l1Acc)
	}
	l["cache.l2_accesses"] = float64(t.l2Acc)
	l["dram.accesses"] = float64(t.dram)
}

// suiteTotals sums the counts over the suite cells a Runner has already
// simulated (memo or store hits), and the quads of the distinct
// simulations behind them: cells whose policies resolve to the same
// machine share one memoized result.
func suiteTotals(ctx context.Context, r *sim.Runner) (totals, uint64, error) {
	var t totals
	var distinctQuads uint64
	seen := map[*pipeline.Metrics]bool{}
	for _, c := range sim.SuiteCells(r.Opt) {
		res, err := r.RunCell(ctx, c)
		if err != nil {
			return totals{}, 0, err
		}
		t.add(countersOf(res.Metrics))
		if !seen[res.Metrics] {
			seen[res.Metrics] = true
			distinctQuads += res.Metrics.Events.QuadsShaded
		}
	}
	return t, distinctQuads, nil
}

// serveCells is every (benchmark, policy) pair the service accepts.
func serveCells() []cell {
	var cs []cell
	for _, b := range trace.Aliases() {
		for _, p := range core.PolicyNames() {
			cs = append(cs, cell{b, p})
		}
	}
	return cs
}

// referenceCounters simulates cells directly on a Runner, with no
// service in between, on two goroutines.
func referenceCounters(opt sim.Options, cells []cell) (map[cell]counters, error) {
	r := sim.NewRunner(opt)
	out := make(map[cell]counters, len(cells))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	next := make(chan cell)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				pol, err := core.PolicyByName(c.Policy)
				var res *sim.RunResult
				if err == nil {
					res, err = r.RunOneWith(c.Bench, pol, nil)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s: %w", c, err)
				}
				if err == nil {
					out[c] = countersOf(res.Metrics)
				}
				mu.Unlock()
			}
		}()
	}
	for _, c := range cells {
		next <- c
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

//go:embed digests.json
var digestsJSON []byte

// digestFile is the committed record of correct outputs for the default
// seed and one held-out seed. Keys are "<scale>/<seed>".
type digestFile struct {
	// Suite is the SHA-256 of the full suite render (the bytes
	// `dtexlbench -exp all -scale S -seed N` prints).
	Suite map[string]string `json:"suite"`
	// Cells maps "<bench>/<policy>" to the counters digest of every cell
	// the service accepts.
	Cells map[string]map[string]string `json:"cells"`
}

func digestKey(scale int, seed uint64) string { return fmt.Sprintf("%d/%d", scale, seed) }

func loadDigests() (digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return d, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// recordDigests recomputes the committed digests for the given seeds at
// the serving and suite scale.
func recordDigests(seeds []uint64) (digestFile, error) {
	d := digestFile{Suite: map[string]string{}, Cells: map[string]map[string]string{}}
	for _, seed := range seeds {
		opt := scaledOptions(suiteScale, seed)
		r := sim.NewRunner(opt)
		r.Parallelism = workers
		out, _, _, err := renderAll(r, nil, 0, func() {})
		if err != nil {
			return d, err
		}
		key := digestKey(suiteScale, seed)
		d.Suite[key] = tableDigest(out)
		ref, err := referenceCounters(opt, serveCells())
		if err != nil {
			return d, err
		}
		cells := map[string]string{}
		for c, cs := range ref {
			cells[c.String()] = cs.digest()
		}
		d.Cells[key] = cells
	}
	return d, nil
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
