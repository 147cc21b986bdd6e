package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dtexl/internal/core"
)

// A run's checkpoint is its result store (-store DIR): each completed
// simulation is one entry, and a rerun or a restarted process resumes
// from those entries. The tests in this file keep the names of the
// append-only journal's tests, which the store replaced, and check the
// same recovery properties on the store.

// storeEntryPath returns the file st keeps key's entry in.
func storeEntryPath(t *testing.T, st *Store, key simKey) string {
	t.Helper()
	kb, err := simKeyBytes(key)
	if err != nil {
		t.Fatal(err)
	}
	return st.path(entryName(kb))
}

// TestJournalRoundTrip: an experiment checkpointed in a store is served
// back to a fresh runner without computing anything. The output is
// byte-equal, every simulation is a store hit, and no scene is
// generated and no frame prepared.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opt := storeOptions()

	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st1.Logf = t.Logf
	r1 := NewRunner(opt)
	r1.Store = st1
	var want bytes.Buffer
	if err := r1.RunExperiment("fig11", &want); err != nil {
		t.Fatal(err)
	}
	n, err := st1.Len()
	if err != nil || n == 0 || uint64(n) != r1.CompletedRuns() {
		t.Fatalf("Len() = %d, %v; want one entry per completed run (%d)", n, err, r1.CompletedRuns())
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Logf = t.Logf
	r2 := NewRunner(opt)
	r2.Store = st2
	var got bytes.Buffer
	if err := r2.RunExperiment("fig11", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("fig11 served from the store differs from the recorded run:\n--- want\n%s--- got\n%s", want.String(), got.String())
	}
	if s := st2.Stats(); s.Hits != uint64(n) || s.Misses != 0 {
		t.Errorf("resumed store stats = %+v, want %d hits and no miss", s, n)
	}
	if tm := r2.Timing(); tm.SceneMisses != 0 || tm.PrepMisses != 0 {
		t.Errorf("resumed run generated %d animations and prepared %d frames, want none", tm.SceneMisses, tm.PrepMisses)
	}
	if r2.CompletedRuns() != uint64(n) {
		t.Errorf("CompletedRuns() = %d, want %d (store hits count as completed)", r2.CompletedRuns(), n)
	}
}

// TestJournalTornTail: a checkpoint with one entry cut short resumes.
// The intact entry is served, the torn one is dropped and recomputed,
// and the next process reads the repaired entry back.
func TestJournalTornTail(t *testing.T) {
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

	// Chop bytes off TRu's entry, as a write that lost its tail leaves it.
	torn := storeEntryPath(t, st1, newSimKey(opt, "TRu", core.Baseline()))
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Logf = t.Logf
	r2 := NewRunner(opt)
	r2.Store = st2
	for _, alias := range opt.aliases() {
		got, err := r2.RunOneWith(alias, core.Baseline(), nil)
		if err != nil {
			t.Fatalf("%s: resume over a torn entry failed: %v", alias, err)
		}
		if !reflect.DeepEqual(got.Metrics, want[alias].Metrics) {
			t.Errorf("%s: resumed metrics differ from the recorded run", alias)
		}
	}
	if s := st2.Stats(); s.Hits != 1 || s.Misses != 1 || s.CorruptDropped != 1 || s.Repaired != 1 {
		t.Errorf("stats over the torn entry = %+v, want 1 hit, 1 miss, 1 corrupt drop, 1 repair", s)
	}

	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st3.Logf = t.Logf
	for _, alias := range opt.aliases() {
		res, ok := st3.lookup(newSimKey(opt, alias, core.Baseline()), true)
		if !ok || !reflect.DeepEqual(res.Metrics, want[alias].Metrics) {
			t.Errorf("%s: not served by the next process after the repair (ok %v)", alias, ok)
		}
	}
	if s := st3.Stats(); s.CorruptDropped != 0 {
		t.Errorf("the repaired entry read as corrupt again: %+v", s)
	}
}

// TestJournalGarbageTail: garbage in a checkpoint is treated exactly
// like a torn entry, and a file that is not an entry is inert. An entry
// holding non-JSON bytes is dropped and recomputed. An old journal.jsonl,
// here with a garbage tail, is never counted, read or removed, so its
// cells cost a one-time recompute.
func TestJournalGarbageTail(t *testing.T) {
	dir := t.TempDir()
	opt := storeOptions()

	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st1.Logf = t.Logf
	r1 := NewRunner(opt)
	r1.Store = st1
	want, err := r1.RunOneWith("CCS", core.Baseline(), nil)
	if err != nil {
		t.Fatal(err)
	}

	garbage := []byte(`{"key":{"Alias":"tr`)
	if err := os.WriteFile(storeEntryPath(t, st1, newSimKey(opt, "CCS", core.Baseline())), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "journal.jsonl")
	oldLog := append([]byte("{\"key\":{\"Alias\":\"TRu\"}}\n"), garbage...)
	if err := os.WriteFile(journal, oldLog, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("store over a garbage entry failed to open: %v", err)
	}
	st2.Logf = t.Logf
	if n, err := st2.Len(); err != nil || n != 1 {
		t.Fatalf("Len() = %d, %v; want 1 (the garbage entry, not the journal)", n, err)
	}
	r2 := NewRunner(opt)
	r2.Store = st2
	got, err := r2.RunOneWith("CCS", core.Baseline(), nil)
	if err != nil {
		t.Fatalf("resume over a garbage entry failed: %v", err)
	}
	if !reflect.DeepEqual(got.Metrics, want.Metrics) {
		t.Error("recomputed metrics differ from the recorded run")
	}
	if _, err := r2.RunOneWith("TRu", core.Baseline(), nil); err != nil {
		t.Fatal(err)
	}
	if s := st2.Stats(); s.Hits != 0 || s.Misses != 2 || s.CorruptDropped != 1 || s.Repaired != 1 {
		t.Errorf("stats over the garbage = %+v, want 0 hits, 2 misses, 1 corrupt drop, 1 repair", s)
	}

	// GC scans entries only: evicting every one of them leaves the
	// journal as it was.
	gs, err := st2.GC(GCPolicy{MaxBytes: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Scanned != 2 || gs.Evicted != 2 {
		t.Errorf("GC stats = %+v, want the 2 entries scanned and evicted", gs)
	}
	if b, err := os.ReadFile(journal); err != nil || !bytes.Equal(b, oldLog) {
		t.Errorf("journal.jsonl changed by the store (%v)", err)
	}
}

// TestJournalConcurrentWritersTornTail combines the two recovery
// properties a drained server's store needs: after concurrent writers
// and one torn entry, a fresh store serves every complete record, loses
// only the torn one, and serves it again once it is re-recorded.
func TestJournalConcurrentWritersTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Logf = t.Logf
	const writers, perWriter = 4, 10
	const total = writers * perWriter
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seed := uint64(w*perWriter + i + 1)
				if err := st.record(syntheticKey("CCS", seed), syntheticResult(seed)); err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()

	tornKey := syntheticKey("CCS", total)
	torn := storeEntryPath(t, st, tornKey)
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Logf = t.Logf
	found := 0
	for seed := uint64(1); seed <= total; seed++ {
		if res, ok := st2.lookup(syntheticKey("CCS", seed), true); ok {
			if res.Metrics.Cycles != int64(seed) {
				t.Fatalf("seed %d served cycles %d", seed, res.Metrics.Cycles)
			}
			found++
		}
	}
	if found != total-1 {
		t.Fatalf("served %d records after the torn entry, want %d", found, total-1)
	}
	if s := st2.Stats(); s.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d, want 1 (the torn entry)", s.CorruptDropped)
	}

	if err := st2.record(tornKey, syntheticResult(total)); err != nil {
		t.Fatal(err)
	}
	if res, ok := st2.lookup(tornKey, true); !ok || res.Metrics.Cycles != total {
		t.Fatalf("re-recorded entry not served (ok %v)", ok)
	}
	if s := st2.Stats(); s.Repaired != 1 {
		t.Errorf("Repaired = %d, want 1", s.Repaired)
	}
}
