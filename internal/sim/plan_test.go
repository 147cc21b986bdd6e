package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"dtexl/internal/core"
)

// TestSuiteCellKeysUnchanged pins a suite cell's wire form and store
// key bytes to what they were before cells could carry overrides and
// the IMR kind, so existing stores still hit; the new
// fields must change both.
func TestSuiteCellKeysUnchanged(t *testing.T) {
	c := CellSpec{Bench: "TRu", Policy: "DTexL(HLB-flp2)"}
	if b, _ := json.Marshal(c); string(b) != `{"bench":"TRu","policy":"DTexL(HLB-flp2)"}` || c.ID() != "TRu/DTexL(HLB-flp2)" {
		t.Errorf("suite cell wire form %s, ID %s changed", b, c.ID())
	}
	keyBytes := func(c CellSpec) []byte {
		key, _, err := cellKey(ScaledOptions(4), c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := simKeyBytes(key)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	kb := keyBytes(c)
	const want = "c4e0277e3aca963ad0691f2aa4cbbd3ec7f3faacbe692b779a8907828044c228"
	if got := entryName(kb); got != want {
		t.Errorf("store key of %s: SHA-256 %s, want %s; key bytes:\n%s", c.ID(), got, want, kb)
	}
	imr := CellSpec{Bench: "TRu", Policy: "baseline", IMR: true}
	warps := CellSpec{Bench: "TRu", Policy: "DTexL", Override: &Override{WarpSlots: 2}}
	if bytes.Equal(keyBytes(imr), keyBytes(CellSpec{Bench: "TRu", Policy: "baseline"})) {
		t.Error("IMR cell shares the tile-based baseline's key")
	}
	if bytes.Equal(keyBytes(warps), kb) {
		t.Error("override left the key unchanged")
	}
	for _, c := range []CellSpec{imr, warps} {
		b, _ := json.Marshal(c)
		var back CellSpec
		if err := json.Unmarshal(b, &back); err != nil || back.ID() != c.ID() || !bytes.Equal(keyBytes(back), keyBytes(c)) {
			t.Errorf("%s does not round-trip through %s", c.ID(), b)
		}
	}
	for _, o := range []Override{{WarpSched: "fastest"}, {TileOrder: "spiral"}, {WarpSlots: -2}, {L1KiB: -8}} {
		if _, _, err := cellKey(ScaledOptions(4), CellSpec{Bench: "TRu", Policy: "DTexL", Override: &o}); err == nil {
			t.Errorf("override %+v accepted", o)
		}
	}
}

// TestExperimentPlansRenderNothing: each experiment's plan holds every
// cell its rendering reads. On a fresh Runner per id, warming the plan
// and then rendering runs no simulation (IMR included) and prepares no
// frame, and the per-id renders joined as `dtexlbench -exp all` joins
// them are the suite golden's bytes.
func TestExperimentPlansRenderNothing(t *testing.T) {
	var all bytes.Buffer
	for i, id := range ExperimentIDs() {
		r := NewRunner(ScaledOptions(16))
		if err := r.Warm(r.planOf(id)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		before := r.Timing()
		if i > 0 {
			all.WriteByte('\n')
		}
		if err := r.RunExperiment(id, &all); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		after := r.Timing()
		if after.SimMisses != before.SimMisses || after.PrepMisses != before.PrepMisses || after.Raster != before.Raster {
			t.Errorf("%s: rendering simulated: simulations %d -> %d, preparations %d -> %d, raster %v -> %v",
				id, before.SimMisses, after.SimMisses, before.PrepMisses, after.PrepMisses, before.Raster, after.Raster)
		}
	}
	sum := sha256.Sum256(all.Bytes())
	if got := hex.EncodeToString(sum[:]); got != suiteTablesSHA256 {
		t.Errorf("per-experiment renders differ from -exp all: SHA-256 %s, want %s", got, suiteTablesSHA256)
	}
}

// TestWarmAllFramesLeaveWithTheirCells: WarmAll prepares each of its 40
// frames (ten benchmarks under four front keys) once, holds at most
// Parallelism + 1 at a time, and holds none once it returns.
func TestWarmAllFramesLeaveWithTheirCells(t *testing.T) {
	r := NewRunner(ScaledOptions(16))
	r.Parallelism = 2
	frames := map[prepKey]bool{}
	for _, c := range r.planOf(ExperimentIDs()...) {
		key, _, err := cellKey(r.Opt, c)
		if err != nil {
			t.Fatal(err)
		}
		if pk, ok := key.prepKey(); ok {
			frames[pk] = true
		}
	}
	if len(frames) != 40 {
		t.Fatalf("the suite reads %d frames, want 40", len(frames))
	}
	if err := r.WarmAll(); err != nil {
		t.Fatal(err)
	}
	tm := r.Timing()
	if tm.PrepMisses != uint64(len(frames)) {
		t.Errorf("WarmAll built %d frames, want each of the %d once", tm.PrepMisses, len(frames))
	}
	if tm.PeakPrepared < 1 || tm.PeakPrepared > r.Parallelism+1 || tm.PeakPreparedBytes <= 0 {
		t.Errorf("peak %d frames (%d bytes) held at once, want 1..%d", tm.PeakPrepared, tm.PeakPreparedBytes, r.Parallelism+1)
	}
	s := r.prepStoreLazy()
	if len(s.frames.flights) != 0 || len(s.resident) != 0 || s.used != 0 || len(s.lastUse) != 0 || len(s.needs) != 0 {
		t.Errorf("after WarmAll the memo holds %d frames, the residency index %d (%d bytes, %d stamps), %d needs",
			len(s.frames.flights), len(s.resident), s.used, len(s.lastUse), len(s.needs))
	}
}

// TestPlanKeepsUnplannedFrames: a frame prepared outside a plan stays
// under PrepBudget's rule — a plan reading it neither rebuilds nor
// drops it — while the frames the plan builds leave with its cells.
func TestPlanKeepsUnplannedFrames(t *testing.T) {
	opt := ScaledOptions(16)
	opt.Benchmarks = []string{"TRu", "CCS"}
	r := NewRunner(opt)
	if _, err := r.RunOneWith("TRu", core.Baseline(), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.RunExperiment("fig17", &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	s := r.prepStoreLazy()
	if len(s.frames.flights) != 1 || len(s.resident) != 1 {
		t.Fatalf("memo holds %d frames and the residency index %d after the plan, want only the one prepared before it",
			len(s.frames.flights), len(s.resident))
	}
	for pk := range s.frames.flights {
		if _, ok := s.resident[pk]; !ok || pk.Alias != "TRu" {
			t.Errorf("store kept %s's frame (resident %v), want TRu's", pk.Alias, ok)
		}
	}
	if tm := r.Timing(); tm.PrepMisses != 2 {
		t.Errorf("%d preparations, want 2 (TRu before the plan, CCS in it)", tm.PrepMisses)
	}
}

// TestIMRCellIsACell: the immediate-mode run is an ordinary cell — a
// memo hit on the second read, served from a shared store to a fresh
// Runner, and bounded by RunTimeout.
func TestIMRCellIsACell(t *testing.T) {
	opt := ScaledOptions(16)
	imr := CellSpec{Bench: "TRu", Policy: "baseline", IMR: true}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(opt)
	r.Store = store
	first, err := r.RunCell(context.Background(), imr)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := r.RunCell(context.Background(), imr); err != nil || again.Metrics != first.Metrics {
		t.Errorf("second read was not a memo hit: %v", err)
	}
	if tm := r.Timing(); tm.SimMisses != 1 || tm.SimHits != 1 {
		t.Errorf("simulations %d/%d hits/misses, want 1/1", tm.SimHits, tm.SimMisses)
	}

	fresh := NewRunner(opt)
	fresh.Store = store
	served := false
	fresh.Progress = func(line string) { served = served || bytes.Contains([]byte(line), []byte("shared store")) }
	got, err := fresh.RunCell(context.Background(), imr)
	if err != nil {
		t.Fatal(err)
	}
	if !served || !reflect.DeepEqual(got.Metrics, first.Metrics) {
		t.Errorf("fresh Runner: served from store %v, metrics equal %v", served, reflect.DeepEqual(got.Metrics, first.Metrics))
	}

	slow := NewRunner(opt)
	slow.RunTimeout = time.Nanosecond
	if _, err := slow.RunCell(context.Background(), imr); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("IMR cell under a 1ns RunTimeout: %v, want context.DeadlineExceeded", err)
	}
}

// TestPrepStoreEvictsLeastRecentlyUsed: past PrepBudget the frame whose
// latest call started longest ago leaves first — a frame read again is
// recent again — and a frame that left is rebuilt on its next read.
func TestPrepStoreEvictsLeastRecentlyUsed(t *testing.T) {
	opt := ScaledOptions(16)
	probe := NewRunner(opt)
	for _, alias := range []string{"TRu", "CCS", "GTr"} {
		if _, err := probe.RunOneWith(alias, core.Baseline(), nil); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for _, fr := range probe.prepStoreLazy().resident {
		total += fr.size
	}

	r := NewRunner(opt)
	r.PrepBudget = total - 1 // the three frames do not fit; any two do
	for _, c := range []struct {
		alias string
		pol   core.Policy
	}{
		{"TRu", core.Baseline()},
		{"CCS", core.Baseline()},
		{"TRu", core.DTexL()}, // reads TRu's frame again
		{"GTr", core.Baseline()},
	} {
		if _, err := r.RunOneWith(c.alias, c.pol, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := r.prepStoreLazy()
	held := map[string]bool{}
	for pk := range s.resident {
		held[pk.Alias] = true
		if _, ok := s.frames.flights[pk]; !ok {
			t.Errorf("%s is resident but not in the memo", pk.Alias)
		}
	}
	if len(held) != 2 || !held["TRu"] || !held["GTr"] || len(s.frames.flights) != 2 {
		t.Errorf("resident %v (%d in the memo), want TRu and GTr: CCS was least recently used", held, len(s.frames.flights))
	}
	if _, err := r.RunOneWith("CCS", core.DTexL(), nil); err != nil {
		t.Fatal(err)
	}
	if tm := r.Timing(); tm.PrepMisses != 4 || tm.PrepHits != 1 {
		t.Errorf("preparations %d/%d hits/misses, want 1/4 (CCS rebuilt after its eviction)", tm.PrepHits, tm.PrepMisses)
	}
}

// TestKeepFrameOfHoldsOneFrame: KeepFrameOf before each cell leaves the
// runner holding only the frame that cell reads. A cell of another
// frame leaves one frame resident, a new cell of a dropped frame
// prepares it again, and a cell of the held frame changes nothing.
func TestKeepFrameOfHoldsOneFrame(t *testing.T) {
	r := NewRunner(ScaledOptions(16))
	s := r.prepStoreLazy()
	for i, step := range []struct {
		cell   CellSpec
		misses uint64 // preparations after the cell
		held   string // the one resident frame after the cell
	}{
		{CellSpec{Bench: "TRu", Policy: "baseline"}, 1, "TRu"},
		{CellSpec{Bench: "CCS", Policy: "baseline"}, 2, "CCS"},
		{CellSpec{Bench: "TRu", Policy: "DTexL"}, 3, "TRu"},
		{CellSpec{Bench: "TRu", Policy: upperBoundName, UpperBound: true}, 3, "TRu"},
	} {
		r.KeepFrameOf(step.cell)
		if _, err := r.RunCell(t.Context(), step.cell); err != nil {
			t.Fatal(err)
		}
		var held []string
		for pk := range s.resident {
			held = append(held, pk.Alias)
		}
		if tm := r.Timing(); tm.PrepMisses != step.misses || len(held) != 1 || held[0] != step.held || len(s.frames.flights) != 1 {
			t.Errorf("after cell %d (%s): %d preparations, resident %v, %d in the memo; want %d, [%s], 1",
				i, step.cell.ID(), tm.PrepMisses, held, len(s.frames.flights), step.misses, step.held)
		}
	}
	// A cell that reads no prepared frame drops the one held.
	r.KeepFrameOf(CellSpec{Bench: "TRu", Policy: "baseline", IMR: true})
	if len(s.resident) != 0 || s.used != 0 || len(s.frames.flights) != 0 {
		t.Errorf("after an IMR cell's KeepFrameOf: %d resident (%d bytes), %d in the memo; want none", len(s.resident), s.used, len(s.frames.flights))
	}
	if tm := r.Timing(); tm.PeakPrepared != 1 {
		t.Errorf("PeakPrepared = %d, want 1", tm.PeakPrepared)
	}
}
