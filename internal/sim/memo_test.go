package sim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"dtexl/internal/core"
)

func TestMemoSingleFlight(t *testing.T) {
	m := newMemo[int, int]()
	var execs int32
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.do(context.Background(), 7, func() (int, error) {
				atomic.AddInt32(&execs, 1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("got %d, %v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if n := atomic.LoadInt32(&execs); n != 1 {
		t.Errorf("computed %d times, want 1", n)
	}
}

func TestMemoErrorEntryRemoved(t *testing.T) {
	m := newMemo[string, int]()
	boom := errors.New("boom")
	calls := 0
	fail := func() (int, error) { calls++; return 0, boom }
	if _, err := m.do(context.Background(), "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The failed flight must not be treated as a completed entry.
	v, err := m.do(context.Background(), "k", func() (int, error) { calls++; return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("retry: %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (error entry cached?)", calls)
	}
	// And the success is now memoized.
	v, err = m.do(context.Background(), "k", func() (int, error) { calls++; return -1, nil })
	if err != nil || v != 9 || calls != 2 {
		t.Fatalf("memoized read: %d, %v, calls=%d", v, err, calls)
	}
}

func TestMemoPanicReleasesWaiters(t *testing.T) {
	m := newMemo[int, int]()
	func() {
		defer func() { recover() }()
		m.do(context.Background(), 1, func() (int, error) { panic("die") })
	}()
	// The entry must be gone and a retry must work.
	v, err := m.do(context.Background(), 1, func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("after panic: %d, %v", v, err)
	}
}

// TestWarmErrorPath exercises the Runner.Warm failure contract: a bad
// cell must surface its error without deadlocking the pool (all
// workers can exit while cells remain), and without leaving a partial
// memo entry — good cells remain runnable and the bad one re-errors.
func TestWarmErrorPath(t *testing.T) {
	r := NewRunner(testOptions())
	r.Parallelism = 4
	bad := core.Baseline()
	cells := []CellSpec{{Bench: "???", Policy: bad.Name}}
	for i := 1; i <= 32; i++ {
		// Enough distinct trailing cells that a blocked queue would
		// deadlock.
		cells = append(cells, CellSpec{Bench: "TRu", Policy: "baseline", Override: &Override{WarpSlots: i}})
	}
	if err := r.Warm(cells); err == nil {
		t.Fatal("Warm swallowed the bad cell's error")
	}
	if _, err := r.run("???", bad, false); err == nil {
		t.Fatal("failed cell left a memo entry that reads as complete")
	}
	if _, err := r.run("TRu", core.Baseline(), false); err != nil {
		t.Fatalf("good cell unusable after failed Warm: %v", err)
	}
}

// TestWarmConcurrentSharing drives the full memo stack (scene store,
// preparation store, simulation memo) from many workers at once; run
// under -race this is the shared-state check the CI workflow pins.
func TestWarmConcurrentSharing(t *testing.T) {
	r := NewRunner(testOptions())
	r.Parallelism = 8
	var cells []CellSpec
	pols := []core.Policy{core.Baseline(), core.BaselineDecoupled(), core.DTexL()}
	for _, alias := range r.Opt.aliases() {
		for _, pol := range pols {
			cells = append(cells, CellSpec{Bench: alias, Policy: pol.Name})
		}
	}
	// A second caller of the same cells collides with Warm's workers on
	// every key.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, c := range cells {
			if _, err := r.RunCell(t.Context(), c); err != nil {
				t.Error(err)
			}
		}
	}()
	err := r.Warm(cells)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	tm := r.Timing()
	if tm.SceneMisses != uint64(len(r.Opt.aliases())) {
		t.Errorf("scene generations = %d, want one per benchmark (%d)", tm.SceneMisses, len(r.Opt.aliases()))
	}
	if tm.PrepMisses != uint64(len(r.Opt.aliases())) {
		t.Errorf("preparations = %d, want one per benchmark (%d)", tm.PrepMisses, len(r.Opt.aliases()))
	}
	if tm.SimMisses != uint64(len(r.Opt.aliases())*len(pols)) {
		t.Errorf("simulations = %d, want %d", tm.SimMisses, len(r.Opt.aliases())*len(pols))
	}
	if tm.SimHits == 0 {
		t.Error("duplicate callers produced no memo hits")
	}
}

// TestWarmAllSharesConfigDuplicates checks the config-keyed layer: the
// suite cells repeat machine configurations under different policy
// names (DTexL vs HLB-flp2, FG-xshift2 vs baseline), and the ablations
// repeat default sweep points, none of which may re-simulate.
func TestWarmAllSharesConfigDuplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("full WarmAll sweep")
	}
	r := NewRunner(testOptions())
	if err := r.Warm(SuiteCells(r.Opt)); err != nil {
		t.Fatal(err)
	}
	tm := r.Timing()
	// 22 named cells per benchmark; at least 2 are config-duplicates
	// (HLB-flp2 == DTexL's config, FG-xshift2 == baseline's).
	perBench := uint64(20)
	maxSims := perBench * uint64(len(r.Opt.aliases()))
	if tm.SimMisses > maxSims {
		t.Errorf("suite cells executed %d simulations, want <= %d (config dedup broken)", tm.SimMisses, maxSims)
	}
	if err := r.WarmAll(); err != nil {
		t.Fatal(err)
	}
	keys := map[simKey]bool{}
	plan := r.planOf(ExperimentIDs()...)
	for _, c := range plan {
		key, _, err := cellKey(r.Opt, c)
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = true
	}
	if got := r.Timing().SimMisses; got != uint64(len(keys)) {
		t.Errorf("WarmAll executed %d simulations, want one per distinct configuration (%d of %d cells)", got, len(keys), len(plan))
	}
}
