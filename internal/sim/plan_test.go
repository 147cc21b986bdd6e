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
// the IMR kind, so existing stores and journals still hit; the new
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
	if s := r.prepStoreLazy(); len(s.entries) != 0 || s.held != 0 || s.used != 0 || len(s.needs) != 0 {
		t.Errorf("after WarmAll the store holds %d frames (%d bytes, %d counted), %d needs", len(s.entries), s.used, s.held, len(s.needs))
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
	if len(s.entries) != 1 {
		t.Fatalf("store holds %d frames after the plan, want only the one prepared before it", len(s.entries))
	}
	for pk := range s.entries {
		if pk.Alias != "TRu" {
			t.Errorf("store kept %s's frame, want TRu's", pk.Alias)
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
