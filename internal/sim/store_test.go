package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/durable"
	"dtexl/internal/pipeline"
)

// storeOptions returns a small two-benchmark suite for store tests.
func storeOptions() Options {
	opt := ScaledOptions(8)
	opt.Benchmarks = []string{"TRu", "CCS"}
	return opt
}

// TestStoreRoundTrip: results recorded through one runner's store are
// served to a second runner sharing the directory, bit-identical to the
// original compute.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opt := storeOptions()

	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st1.Logf = t.Logf
	r1 := NewRunner(opt)
	r1.Store = st1
	want := map[string]*RunResult{}
	for _, alias := range opt.aliases() {
		res, err := r1.RunOneWith(alias, core.DTexL(), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[alias] = res
	}
	if n, err := st1.Len(); err != nil || n != len(want) {
		t.Fatalf("Len() = %d, %v; want %d entries on disk", n, err, len(want))
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Logf = t.Logf
	r2 := NewRunner(opt)
	r2.Store = st2
	for _, alias := range opt.aliases() {
		res, err := r2.RunOneWith(alias, core.DTexL(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Metrics, want[alias].Metrics) {
			t.Errorf("%s: store-served metrics differ from recorded run", alias)
		}
		if res.Energy != want[alias].Energy {
			t.Errorf("%s: store-served energy differs from recorded run", alias)
		}
	}
	stats := st2.Stats()
	if stats.Hits != uint64(len(want)) || stats.Misses != 0 {
		t.Errorf("second runner stats = %+v, want every lookup a hit", stats)
	}
	if r2.CompletedRuns() != uint64(len(want)) {
		t.Errorf("CompletedRuns() = %d, want %d (store hits count as completed)", r2.CompletedRuns(), len(want))
	}
}

// TestStoreCorruptionRoundTrip is the injected-fault acceptance for the
// checksummed store: flip a byte in an entry, assert the checksum (or
// envelope/key verification) rejects it as a miss, the cell recomputes —
// concurrently, under the race detector — and the repaired entry is
// served afterward.
func TestStoreCorruptionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opt := storeOptions()

	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st1.Logf = t.Logf
	r1 := NewRunner(opt)
	r1.Store = st1
	want, err := r1.RunOneWith("TRu", core.DTexL(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte mid-entry — bit rot, or the chaos harness's injected
	// corruption.
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("store entries = %v, %v; want exactly one", names, err)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(names[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh runner must reject the corrupt entry, recompute, and repair
	// it. Two concurrent callers exercise the single-flight path under
	// -race.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Logf = t.Logf
	r2 := NewRunner(opt)
	r2.Store = st2
	var wg sync.WaitGroup
	got := make([]*RunResult, 2)
	errs := make([]error, 2)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = r2.RunOneWith("TRu", core.DTexL(), nil)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i].Metrics, want.Metrics) || got[i].Energy != want.Energy {
			t.Errorf("recompute after corruption differs from original result")
		}
	}
	stats := st2.Stats()
	if stats.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d, want 1", stats.CorruptDropped)
	}
	if stats.Repaired != 1 {
		t.Errorf("Repaired = %d, want 1 (recompute must repair the entry)", stats.Repaired)
	}
	if stats.Hits != 0 {
		t.Errorf("Hits = %d, want 0 (the corrupt entry must not be served)", stats.Hits)
	}

	// The repaired entry is served to the next runner.
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st3.Logf = t.Logf
	r3 := NewRunner(opt)
	r3.Store = st3
	res, err := r3.RunOneWith("TRu", core.DTexL(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Metrics, want.Metrics) || res.Energy != want.Energy {
		t.Error("repaired entry differs from the original result")
	}
	if s := st3.Stats(); s.Hits != 1 || s.Misses != 0 || s.CorruptDropped != 0 {
		t.Errorf("repaired-store stats = %+v, want one clean hit", s)
	}
}

// TestStoreRejectsBadCellPayload: the fleet ingest path refuses payloads
// that do not parse as a complete result, and the wire checksum matches
// what MarshalCellResult computes.
func TestStoreRejectsBadCellPayload(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Logf = t.Logf
	opt := storeOptions()
	c := CellSpec{Bench: "TRu", Policy: "baseline"}
	if err := st.RecordCellResult(opt, c, []byte(`{"Metrics":`)); err == nil {
		t.Error("RecordCellResult accepted a torn payload")
	}
	if err := st.RecordCellResult(opt, c, []byte(`{"Energy":{}}`)); err == nil {
		t.Error("RecordCellResult accepted a payload with no metrics")
	}
	if st.HasCell(opt, c) {
		t.Error("rejected payloads must not create entries")
	}

	r := NewRunner(opt)
	res, err := r.RunCell(t.Context(), c)
	if err != nil {
		t.Fatal(err)
	}
	b, sum, err := MarshalCellResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if sum != durable.Sum(b) {
		t.Errorf("MarshalCellResult sum %s != durable.Sum %s", sum, durable.Sum(b))
	}
	if err := st.RecordCellResult(opt, c, b); err != nil {
		t.Fatal(err)
	}
	if !st.HasCell(opt, c) {
		t.Error("HasCell false after a valid RecordCellResult")
	}
}

// TestSuiteCellsRenderExperimentsFromStore is the fleet's correctness
// oracle in miniature: completing every suite cell into a shared store
// lets a fresh runner render the experiment tables entirely from the
// store (zero misses), byte-identical to a serial run.
func TestSuiteCellsRenderExperimentsFromStore(t *testing.T) {
	opt := storeOptions()
	exps := []string{"fig11", "fig16", "fig17"}

	// Serial reference.
	ref := NewRunner(opt)
	want := map[string]string{}
	for _, id := range exps {
		var buf bytes.Buffer
		if err := ref.RunExperiment(id, &buf); err != nil {
			t.Fatal(err)
		}
		want[id] = buf.String()
	}

	// "Fleet": every suite cell computed through RunCell into the store,
	// as workers would.
	dir := t.TempDir()
	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st1.Logf = t.Logf
	r1 := NewRunner(opt)
	r1.Store = st1
	cells := SuiteCells(opt)
	if len(cells) == 0 {
		t.Fatal("SuiteCells returned no cells")
	}
	for _, c := range cells {
		if _, err := r1.RunCell(t.Context(), c); err != nil {
			t.Fatalf("%s: %v", c.ID(), err)
		}
		if !st1.HasCell(opt, c) {
			t.Fatalf("%s: store has no entry after RunCell", c.ID())
		}
	}

	// Coordinator render: a fresh runner over the same store must serve
	// every lookup from L2 and reproduce the serial bytes exactly.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Logf = t.Logf
	r2 := NewRunner(opt)
	r2.Store = st2
	for _, id := range exps {
		var buf bytes.Buffer
		if err := r2.RunExperiment(id, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want[id] {
			t.Errorf("%s rendered from store differs from serial run:\n--- want\n%s--- got\n%s", id, want[id], buf.String())
		}
	}
	if s := st2.Stats(); s.Misses != 0 || s.CorruptDropped != 0 {
		t.Errorf("store-backed render stats = %+v, want zero misses (suite cells must cover every experiment)", s)
	}
}

// TestSuiteCellsDeterministic: the shard source is stable and unique.
func TestSuiteCellsDeterministic(t *testing.T) {
	opt := storeOptions()
	a, b := SuiteCells(opt), SuiteCells(opt)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SuiteCells is not deterministic")
	}
	seen := map[string]bool{}
	for _, c := range a {
		if seen[c.ID()] {
			t.Errorf("duplicate cell %s", c.ID())
		}
		seen[c.ID()] = true
		if _, _, err := c.ResolvePolicy(); err != nil {
			t.Errorf("%s: %v", c.ID(), err)
		}
	}
	if _, _, err := (CellSpec{Bench: "TRu", Policy: "no-such-policy"}).ResolvePolicy(); err == nil {
		t.Error("ResolvePolicy accepted an unknown policy label")
	}
}

// TestSuiteCellsShareOneFrame: every suite cell of a benchmark reads the
// same prepared frame, and no two benchmarks share one — the fleet
// leases frame by frame on CellSpec.Bench, so its frame rule rests on
// this.
func TestSuiteCellsShareOneFrame(t *testing.T) {
	for _, div := range []int{1, 4, 8} {
		opt := ScaledOptions(div)
		frames := map[string]prepKey{}
		for _, c := range SuiteCells(opt) {
			key, _, err := cellKey(opt, c)
			if err != nil {
				t.Fatal(err)
			}
			pk, ok := key.prepKey()
			if !ok {
				t.Errorf("scale %d: %s reads no prepared frame", div, c.ID())
				continue
			}
			if first, seen := frames[c.Bench]; !seen {
				frames[c.Bench] = pk
			} else if pk != first {
				t.Errorf("scale %d: %s reads frame %+v, other cells of %s read %+v", div, c.ID(), pk, c.Bench, first)
			}
		}
		distinct := map[prepKey]bool{}
		for _, pk := range frames {
			distinct[pk] = true
		}
		if len(frames) != len(opt.aliases()) || len(distinct) != len(frames) {
			t.Errorf("scale %d: %d benchmarks read %d distinct frames, want one each for %d", div, len(frames), len(distinct), len(opt.aliases()))
		}
	}
}

// TestStoreLenGlobMetacharacters: Len counts the entries of a store
// whose path holds glob metacharacters, and skips temp files and the
// coordinator's snapshot.
func TestStoreLenGlobMetacharacters(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs[1]*")
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := storeOptions()
	key, _, err := cellKey(opt, CellSpec{Bench: "TRu", Policy: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.record(key, &simResult{Metrics: &pipeline.Metrics{}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{durable.TempPrefix + "x.json", "coordinator.snapshot"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Errorf("Len() = %d, %v; want 1", n, err)
	}
}

// TestStoreResumeByteIdentical: an interrupted suite (its store holding
// only part of the results) resumed under a fresh runner renders text
// and CSV byte-identical to an uninterrupted run.
func TestStoreResumeByteIdentical(t *testing.T) {
	opt := storeOptions()

	// Reference: uninterrupted, store-free run.
	ref := NewRunner(opt)
	var want, wantCSV bytes.Buffer
	if err := ref.RunExperiment("fig11", &want); err != nil {
		t.Fatal(err)
	}
	ref.CSV = true
	if err := ref.RunExperiment("fig11", &wantCSV); err != nil {
		t.Fatal(err)
	}

	// "Crashed" run: store two of fig11's cells, then abandon the runner
	// (simulating SIGKILL between cells).
	dir := t.TempDir()
	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st1.Logf = t.Logf
	r1 := NewRunner(opt)
	r1.Store = st1
	for _, pol := range []core.Policy{core.Baseline(), core.DTexL()} {
		if _, err := r1.RunOneWith("TRu", pol, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Resumed run: serves the stored cells, computes the rest.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Logf = t.Logf
	r2 := NewRunner(opt)
	r2.Store = st2
	var got, gotCSV bytes.Buffer
	if err := r2.RunExperiment("fig11", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("resumed fig11 differs from uninterrupted run:\n--- want\n%s--- got\n%s", want.String(), got.String())
	}
	if st2.Stats().Hits == 0 {
		t.Error("resumed run never hit the store")
	}
	r2.CSV = true
	if err := r2.RunExperiment("fig11", &gotCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Error("resumed fig11 CSV differs from uninterrupted run")
	}
}

// syntheticKey builds a distinct simKey without running a simulation —
// the store's contract is over keys and entries, not metrics.
func syntheticKey(alias string, seed uint64) simKey {
	cfg := pipeline.DefaultConfig()
	cfg.Width = int(seed) // distinct effective configs → distinct keys
	return simKey{Alias: alias, Seed: seed, Frames: 1, Cfg: cfg}
}

func syntheticResult(n uint64) *simResult {
	return &simResult{Metrics: &pipeline.Metrics{Cycles: int64(n), FPS: float64(n) / 3.0}}
}

// TestStoreConcurrentWriters hammers one store from many goroutines —
// dtexld shares a single store across its whole runner pool — and
// checks (under -race in CI) that every record lands and reads back,
// and that a fresh OpenStore serves all of them.
func TestStoreConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Logf = t.Logf
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seed := uint64(w*perWriter + i + 1)
				key := syntheticKey("TRu", seed)
				if err := st.record(key, syntheticResult(seed)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if res, ok := st.lookup(key, true); !ok || res.Metrics.Cycles != int64(seed) {
					t.Errorf("writer %d: record %d not readable after write", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Logf = t.Logf
	if n, err := st2.Len(); err != nil || n != writers*perWriter {
		t.Fatalf("Len() = %d, %v; want %d", n, err, writers*perWriter)
	}
	for seed := uint64(1); seed <= writers*perWriter; seed++ {
		res, ok := st2.lookup(syntheticKey("TRu", seed), true)
		if !ok || res.Metrics.Cycles != int64(seed) {
			t.Fatalf("seed %d not served by a fresh store (ok %v)", seed, ok)
		}
	}
	if s := st2.Stats(); s.Hits != writers*perWriter || s.Misses != 0 {
		t.Errorf("fresh store stats = %+v, want %d hits", s, writers*perWriter)
	}
}

// TestStoreTornWrite: what a process killed mid-write can leave behind
// never reads as a result. A truncated entry is dropped, recomputed and
// repaired; a leftover ".tmp-" file — here a complete envelope that
// never got renamed — is neither counted by Len nor served, and GC
// reaps it once it is old. OpenStore applies the same rule, so a store
// that never runs GC (dtexlbench -store, dtexld -store) still loses its
// hour-old orphans on the next open and keeps a fresh one, which may
// belong to a live writer.
func TestStoreTornWrite(t *testing.T) {
	dir := t.TempDir()
	opt := storeOptions()
	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st1.Logf = t.Logf
	r1 := NewRunner(opt)
	r1.Store = st1
	want := map[string]*RunResult{}
	for _, alias := range opt.aliases() {
		if want[alias], err = r1.RunOneWith(alias, core.Baseline(), nil); err != nil {
			t.Fatal(err)
		}
	}
	entry := func(alias string) string {
		return storeEntryPath(t, st1, newSimKey(opt, alias, core.Baseline()))
	}

	// Tear TRu's entry; turn CCS's back into the temp file of a writer
	// that died before its rename.
	torn := entry("TRu")
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, ".tmp-"+filepath.Base(entry("CCS"))+"-42")
	if err := os.Rename(entry("CCS"), orphan); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Logf = t.Logf
	if n, err := st2.Len(); err != nil || n != 1 {
		t.Fatalf("Len() = %d, %v; want 1 (the torn entry, not the temp file)", n, err)
	}
	r2 := NewRunner(opt)
	r2.Store = st2
	for _, alias := range opt.aliases() {
		got, err := r2.RunOneWith(alias, core.Baseline(), nil)
		if err != nil {
			t.Fatalf("%s: resume over a torn store failed: %v", alias, err)
		}
		if !reflect.DeepEqual(got.Metrics, want[alias].Metrics) {
			t.Errorf("%s: recomputed metrics differ from the original run", alias)
		}
	}
	if s := st2.Stats(); s.Hits != 0 || s.Misses != 2 || s.CorruptDropped != 1 || s.Repaired != 1 {
		t.Errorf("stats over the torn store = %+v, want 0 hits, 2 misses, 1 corrupt drop, 1 repair", s)
	}
	if n, err := st2.Len(); err != nil || n != 2 {
		t.Errorf("Len() = %d, %v after the recompute, want 2", n, err)
	}

	// The temp file outlives the recompute until GC finds it old.
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.GC(GCPolicy{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("GC left the orphaned temp file: %v", err)
	}

	stale := filepath.Join(dir, ".tmp-"+filepath.Base(entry("TRu"))+"-7")
	fresh := filepath.Join(dir, ".tmp-"+filepath.Base(entry("CCS"))+"-8")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte(`{"key":`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("OpenStore left the hour-old orphaned temp file: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("OpenStore removed a fresh temp file: %v", err)
	}
}
