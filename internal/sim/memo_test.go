package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/trace"
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

// TestMemoPeekNeverWaits: peek serves only a completed, successful
// flight. An absent key, a flight still running and a failed one are
// misses it reports at once, without waiting or computing, and only a
// served peek counts a hit.
func TestMemoPeekNeverWaits(t *testing.T) {
	m := newMemo[string, int]()
	if _, ok := m.peek("k"); ok {
		t.Fatal("peek served an absent key")
	}
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		m.do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started
	if _, ok := m.peek("k"); ok {
		t.Fatal("peek served a flight still running")
	}
	close(release)
	<-done
	if v, ok := m.peek("k"); !ok || v != 7 {
		t.Fatalf("peek of a completed flight = %d, %v; want 7, true", v, ok)
	}
	m.do(context.Background(), "bad", func() (int, error) { return 0, errors.New("boom") })
	if _, ok := m.peek("bad"); ok {
		t.Fatal("peek served a failed flight")
	}
	if hits, misses := m.stats(); hits != 1 || misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", hits, misses)
	}
}

// TestRunnerMemoizedReadsOnlyTheMemo: Memoized answers from the
// simulation memo alone. A cell held only by the store is a miss that
// leaves the store untouched; once a run has memoized it, Memoized
// returns the same result under the caller's policy label and counts a
// memo hit without computing.
func TestRunnerMemoizedReadsOnlyTheMemo(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := ScaledOptions(16)
	opt.Benchmarks = []string{"TRu"}
	pol := core.DTexL()
	w := NewRunner(opt)
	w.Store = store
	if _, err := w.RunOneCtx(context.Background(), "TRu", pol, nil); err != nil {
		t.Fatal(err)
	}

	r := NewRunner(opt)
	r.Store = store
	before := store.Stats()
	if _, ok := r.Memoized("TRu", pol); ok {
		t.Fatal("Memoized served a cell only the store holds")
	}
	if after := store.Stats(); after != before {
		t.Fatalf("Memoized touched the store: %+v → %+v", before, after)
	}
	got, err := r.RunOneCtx(context.Background(), "TRu", pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	hit, ok := r.Memoized("TRu", pol)
	if !ok || hit.Metrics != got.Metrics || hit.Energy != got.Energy || hit.Bench != "TRu" || hit.Policy != pol {
		t.Fatalf("Memoized = %+v, %v; want the memoized %+v", hit, ok, got)
	}
	// HLB-flp2 configures the same machine as DTexL: one memo entry,
	// served under the caller's label.
	flp2, err := core.PolicyByName("HLB-flp2")
	if err != nil {
		t.Fatal(err)
	}
	if alias, ok := r.Memoized("TRu", flp2); !ok || alias.Metrics != got.Metrics || alias.Policy != flp2 {
		t.Fatalf("Memoized under HLB-flp2 = %+v, %v", alias, ok)
	}
	if tm := r.Timing(); tm.SimHits != 2 || tm.SimMisses != 1 {
		t.Errorf("simulations hits/misses = %d/%d, want 2/1", tm.SimHits, tm.SimMisses)
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

// TestWarmConcurrentSharing drives the full memo stack (scenes,
// prepared frames, simulations) from many workers at once; run
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

// TestMemoForgetInFlight: forgetting a key mid-flight lets the next call
// start a second flight, and the first flight's failure must not remove
// the second flight's entry.
func TestMemoForgetInFlight(t *testing.T) {
	m := newMemo[int, int]()
	started, release := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := m.do(context.Background(), 1, func() (int, error) {
			close(started)
			<-release
			return 0, errors.New("first flight failed")
		})
		first <- err
	}()
	<-started
	m.forget(1)
	if v, err := m.do(context.Background(), 1, func() (int, error) { return 2, nil }); err != nil || v != 2 {
		t.Fatalf("second flight: %d, %v", v, err)
	}
	close(release)
	if err := <-first; err == nil {
		t.Fatal("first flight's error was lost")
	}
	if v, err := m.do(context.Background(), 1, func() (int, error) { return -1, nil }); err != nil || v != 2 {
		t.Fatalf("after the first flight failed: got %d, %v; want the second flight's 2", v, err)
	}
}

// boomErr is TestMemoContractStress's injected failure, numbered so a
// caller can tell which flight's failure it was served.
type boomErr int

func (e boomErr) Error() string { return fmt.Sprintf("boom %d", int(e)) }

var boomRE = regexp.MustCompile(`boom (\d+)`)

// stressVal is a computed value: the key and the number of forgets of
// that key before it was computed.
type stressVal struct{ key, gen int }

// TestMemoContractStress drives one memo from 16 goroutines over 8 keys
// with seeded random caller cancellation, computer errors and panics,
// and forget calls, and checks the memo's contract on every call:
//   - a key computes at most once between forgets, and a forgotten value
//     is never served again;
//   - a caller whose own context is live never gets a context error;
//   - an error or panic reaches its computer and every waiter as an
//     error (a panic never escapes), and no call that starts after the
//     failing computer returned is served that failure.
//
// A forget holds its key's write lock, so it lands on a finished key
// and the per-key forget count is stable during each call.
func TestMemoContractStress(t *testing.T) {
	const workers, keys, ops, seed = 16, 8, 300, 1
	m := newMemo[int, stressVal]()
	var (
		locks   [keys]sync.RWMutex
		gens    [keys]int // forgets so far per key, under locks[k]
		mu      sync.Mutex
		built   = map[stressVal]int{} // successful computes per (key, gen)
		retired sync.Map              // failure id → sequence number after its computer returned
		seq     atomic.Int64
		ids     atomic.Int64
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*workers + int64(w)))
			for i := 0; i < ops; i++ {
				k := rng.Intn(keys)
				if rng.Intn(10) == 0 {
					locks[k].Lock()
					m.forget(k)
					gens[k]++
					locks[k].Unlock()
					continue
				}
				mode := rng.Intn(20) // 0-2 error, 3-4 panic, 5-14 value, 15-19 cancelled caller
				ctx, cancel := context.WithCancel(context.Background())
				if mode >= 15 {
					if rng.Intn(2) == 0 {
						cancel()
					} else {
						time.AfterFunc(time.Duration(rng.Intn(100))*time.Microsecond, cancel)
					}
				}
				id := boomErr(ids.Add(1))
				locks[k].RLock()
				gen := gens[k]
				start := seq.Add(1)
				ran := false
				v, err := m.do(ctx, k, func() (stressVal, error) {
					ran = true
					runtime.Gosched()
					switch {
					case mode >= 15:
						<-ctx.Done() // the executor observing its caller's context
						return stressVal{}, ctx.Err()
					case mode < 3:
						return stressVal{}, id
					case mode < 5:
						panic(id)
					}
					val := stressVal{k, gen}
					mu.Lock()
					built[val]++
					n := built[val]
					mu.Unlock()
					if n > 1 {
						t.Errorf("key %d computed %d times after %d forgets", k, n, gen)
					}
					return val, nil
				})
				if ran && err != nil && mode < 5 {
					retired.Store(int(id), seq.Add(1))
					if mode >= 3 && !strings.Contains(err.Error(), "panicked") {
						t.Errorf("panicking computer got %v, want the recovered panic", err)
					}
				}
				locks[k].RUnlock()
				live := ctx.Err() == nil
				cancel()
				switch {
				case err == nil:
					if v != (stressVal{k, gen}) {
						t.Errorf("key %d after %d forgets served %+v", k, gen, v)
					}
				case isCtxErr(err):
					if live {
						t.Errorf("live caller of key %d got %v", k, err)
					}
				default:
					match := boomRE.FindStringSubmatch(err.Error())
					if match == nil {
						t.Errorf("key %d: unexpected error %v", k, err)
						break
					}
					fid, _ := strconv.Atoi(match[1])
					if at, ok := retired.Load(fid); ok && at.(int64) < start {
						t.Errorf("key %d: call %d started after failure %d returned, yet was served it", k, start, fid)
					}
				}
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("the stress did not finish within a minute: a call is stuck on a failed or abandoned flight")
	}
	if hits, misses := m.stats(); hits == 0 || misses == 0 {
		t.Errorf("hits %d, misses %d: the stress never shared or never computed", hits, misses)
	}
}

// TestRunnerScenesDedup: the Runner's scene memo returns one animation
// per (benchmark, resolution, seed, frames) key, and counts it in
// Timing.
func TestRunnerScenesDedup(t *testing.T) {
	opt := ScaledOptions(8)
	opt.Frames = 2
	r := NewRunner(opt)
	a, err := r.scene("TRu")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.scene("TRu")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second lookup did not return the memoized scene")
	}
	if tm := r.Timing(); tm.SceneHits != 1 || tm.SceneMisses != 1 {
		t.Fatalf("scenes %d/%d hits/misses, want 1/1", tm.SceneHits, tm.SceneMisses)
	}
	// A different key generates separately.
	p, err := trace.ProfileByAlias("TRu")
	if err != nil {
		t.Fatal(err)
	}
	scenes, err := r.animation(context.Background(), p, opt.Width, opt.Height, 2, 2)
	if err != nil || len(scenes) != 2 || scenes[0] == a {
		t.Fatalf("distinct seed: %d scenes, %v, shared %v", len(scenes), err, len(scenes) > 0 && scenes[0] == a)
	}
	if tm := r.Timing(); tm.SceneMisses != 2 {
		t.Fatalf("distinct seed did not miss: %d misses", tm.SceneMisses)
	}
}

// TestRunnerScenesConcurrent: concurrent callers of one benchmark share
// one generation and one scene instance.
func TestRunnerScenesConcurrent(t *testing.T) {
	r := NewRunner(ScaledOptions(8))
	const n = 16
	out := make([]*trace.Scene, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := r.scene("CCS")
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = s
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if out[i] != out[0] {
			t.Fatal("concurrent callers saw different scene instances")
		}
	}
	if tm := r.Timing(); tm.SceneMisses != 1 || tm.SceneHits != n-1 {
		t.Fatalf("scenes %d/%d hits/misses, want %d/1", tm.SceneHits, tm.SceneMisses, n-1)
	}
}
