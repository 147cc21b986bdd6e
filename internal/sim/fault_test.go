package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/pipeline"
)

// faultOptions returns a small two-benchmark suite for fault tests.
func faultOptions() Options {
	opt := ScaledOptions(8)
	opt.Benchmarks = []string{"TRu", "CCS"}
	return opt
}

// TestWarmPanicIsolationStrict: a panicking job must surface as an error
// from Warm — not kill the process or deadlock the worker pool — and the
// sibling jobs' results must stay usable.
func TestWarmPanicIsolationStrict(t *testing.T) {
	r := NewRunner(faultOptions())
	r.Parallelism = 2
	r.Chaos = &ChaosConfig{Bench: "TRu", Policy: "*", Mode: ChaosPanic}
	cells := []CellSpec{
		{Bench: "CCS", Policy: "baseline"},
		{Bench: "TRu", Policy: "baseline"},
		{Bench: "CCS", Policy: "DTexL"},
	}
	err := r.Warm(cells)
	if err == nil {
		t.Fatal("Warm with an injected panic returned nil")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want recovered-panic diagnostic", err)
	}

	// The failed flight must not poison the memo: with the fault removed,
	// the same cell computes cleanly.
	r.Chaos = nil
	if _, err := r.RunOneWith("TRu", core.Baseline(), nil); err != nil {
		t.Fatalf("memo poisoned by recovered panic: %v", err)
	}
	// And the untargeted cell is served from cache.
	if _, err := r.RunOneWith("CCS", core.Baseline(), nil); err != nil {
		t.Fatalf("sibling result lost: %v", err)
	}
}

// TestWarmKeepGoingDegrades: under KeepGoing, a faulted cell is recorded
// and the rest of the warm-up completes with Warm returning nil.
func TestWarmKeepGoingDegrades(t *testing.T) {
	r := NewRunner(faultOptions())
	r.KeepGoing = true
	r.Parallelism = 2
	r.Chaos = &ChaosConfig{Bench: "TRu", Policy: "baseline", Mode: ChaosPanic}
	cells := []CellSpec{
		{Bench: "TRu", Policy: "baseline"},
		{Bench: "CCS", Policy: "baseline"},
		{Bench: "TRu", Policy: "DTexL"},
	}
	if err := r.Warm(cells); err != nil {
		t.Fatalf("keep-going Warm returned %v", err)
	}
	fails := r.Failures()
	if len(fails) != 1 {
		t.Fatalf("Failures() = %v, want exactly the injected cell", fails)
	}
	if fails[0].Bench != "TRu" || fails[0].Series != "baseline" {
		t.Errorf("failure recorded against %s/%s, want TRu/baseline", fails[0].Bench, fails[0].Series)
	}
	if r.CompletedRuns() == 0 {
		t.Error("no completed runs despite two healthy jobs")
	}
}

// TestChaosStallSurfacesErrStall: a stall-mode fault runs the real
// executor under livelock injection, so the error reaching the sim layer
// is a genuine *pipeline.StallError with a state dump.
func TestChaosStallSurfacesErrStall(t *testing.T) {
	r := NewRunner(faultOptions())
	r.Chaos = &ChaosConfig{Bench: "TRu", Policy: "baseline", Mode: ChaosStall}
	_, err := r.RunOneWith("TRu", core.Baseline(), nil)
	if err == nil {
		t.Fatal("stall-injected run returned nil")
	}
	if !errors.Is(err, pipeline.ErrStall) {
		t.Fatalf("err = %v, does not unwrap to pipeline.ErrStall", err)
	}
	var se *pipeline.StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, no *pipeline.StallError in chain", err)
	}
	if se.Dump() == "" || len(se.SCs) == 0 {
		t.Error("stall error carries no state dump")
	}
}

// TestKeepGoingRendersNA: with chaos on one benchmark and KeepGoing set,
// an experiment renders every other cell and marks the faulted ones NA,
// in both the text and CSV output.
func TestKeepGoingRendersNA(t *testing.T) {
	r := NewRunner(faultOptions())
	r.KeepGoing = true
	r.Chaos = &ChaosConfig{Bench: "TRu", Policy: "*", Mode: ChaosError}
	tab, err := r.Table("fig11")
	if err != nil {
		t.Fatalf("keep-going Fig11 aborted: %v", err)
	}
	for _, row := range tab.Rows {
		// Columns are [TRu, CCS, Avg]: the faulted benchmark is NA, the
		// healthy one and the NA-skipping aggregate are not.
		if !math.IsNaN(row.Values[0]) {
			t.Errorf("row %s: faulted cell = %v, want NaN", row.Name, row.Values[0])
		}
		if math.IsNaN(row.Values[1]) {
			t.Errorf("row %s: healthy cell is NaN", row.Name)
		}
		if math.IsNaN(row.Values[2]) {
			t.Errorf("row %s: aggregate is NaN despite a healthy cell", row.Name)
		}
	}
	var text, csv bytes.Buffer
	tab.Render(&text)
	tab.RenderCSV(&csv)
	if !strings.Contains(text.String(), "NA") {
		t.Error("text rendering of a degraded table has no NA cells")
	}
	if !strings.Contains(csv.String(), ",NA") {
		t.Error("CSV rendering of a degraded table has no NA cells")
	}
	if len(r.Failures()) == 0 {
		t.Error("degraded run recorded no failures")
	}
	if r.CompletedRuns() == 0 {
		t.Error("degraded run recorded no completed simulations")
	}
}

// TestCellTimeoutKeepGoingRendersNA: the dtexlbench -cell-timeout
// -keep-going combination — a per-cell deadline with keep-going — must
// render hung cells NA and finish the experiment instead of aborting.
// Every cell fails, so the row fan-out must also record the failures,
// and without keep-going return the error, exactly as a serial run does.
func TestCellTimeoutKeepGoingRendersNA(t *testing.T) {
	var failSeqs, strictErrs []string
	for _, par := range []int{1, 4} {
		r := NewRunner(faultOptions())
		r.Parallelism = par
		r.KeepGoing = true
		r.RunTimeout = time.Nanosecond // every cell "hangs" past its budget
		tab, err := r.Table("fig11")
		if err != nil {
			t.Fatalf("Parallelism %d: keep-going Fig11 aborted on cell timeouts: %v", par, err)
		}
		for _, row := range tab.Rows {
			for i, v := range row.Values {
				if !math.IsNaN(v) {
					t.Errorf("Parallelism %d: row %s col %d = %v, want NaN (all cells timed out)", par, row.Name, i, v)
				}
			}
		}
		fails := r.Failures()
		if len(fails) == 0 {
			t.Fatalf("Parallelism %d: timed-out run recorded no failures", par)
		}
		var seq strings.Builder
		for _, f := range fails {
			if !errors.Is(f.Err, context.DeadlineExceeded) {
				t.Errorf("Parallelism %d: %s/%s failure = %v, want context.DeadlineExceeded", par, f.Bench, f.Series, f.Err)
			}
			fmt.Fprintf(&seq, "%s/%s: %v\n", f.Bench, f.Series, f.Err)
		}
		failSeqs = append(failSeqs, seq.String())
		var text bytes.Buffer
		tab.Render(&text)
		if !strings.Contains(text.String(), "NA") {
			t.Errorf("Parallelism %d: text rendering of a timed-out table has no NA cells", par)
		}

		strict := NewRunner(faultOptions())
		strict.Parallelism = par
		strict.RunTimeout = time.Nanosecond
		if _, err := strict.Table("fig11"); err == nil {
			t.Fatalf("Parallelism %d: Fig11 without keep-going returned no error", par)
		} else {
			strictErrs = append(strictErrs, err.Error())
		}
	}
	if failSeqs[0] != failSeqs[1] {
		t.Errorf("Failures() at Parallelism 4:\n%s\nwant the serial sequence:\n%s", failSeqs[1], failSeqs[0])
	}
	if strictErrs[0] != strictErrs[1] {
		t.Errorf("error at Parallelism 4 = %q, want the serial %q", strictErrs[1], strictErrs[0])
	}
}

// TestKeepGoingFailureCached: a failed configuration is cached, so a
// cell shared by several figures fails once instead of re-running the
// doomed simulation per figure.
func TestKeepGoingFailureCached(t *testing.T) {
	r := NewRunner(faultOptions())
	r.KeepGoing = true
	r.Chaos = &ChaosConfig{Bench: "TRu", Policy: "baseline", Mode: ChaosError}
	_, err1 := r.RunOneWith("TRu", core.Baseline(), nil)
	if err1 == nil {
		t.Fatal("faulted run returned nil")
	}
	// Remove the fault: the cached failure must still be served.
	r.Chaos = nil
	_, err2 := r.RunOneWith("TRu", core.Baseline(), nil)
	if err2 == nil {
		t.Fatal("failure cache missed: faulted configuration re-ran")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("cached failure differs: %v vs %v", err1, err2)
	}
}

// TestRunTimeout: a per-run deadline converts a (here: artificially
// livelocked) simulation into context.DeadlineExceeded instead of
// hanging the suite.
func TestRunTimeout(t *testing.T) {
	r := NewRunner(faultOptions())
	r.RunTimeout = time.Nanosecond
	_, err := r.RunOneWith("CCS", core.Baseline(), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunnerCtxCanceled: canceling the Runner's base context aborts
// simulations with the context error.
func TestRunnerCtxCanceled(t *testing.T) {
	r := NewRunner(faultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r.Ctx = ctx
	_, err := r.RunOneWith("CCS", core.Baseline(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestKeepGoingViolin: a faulted violin row renders as an all-NA
// summary instead of aborting the figure.
func TestKeepGoingViolin(t *testing.T) {
	r := NewRunner(faultOptions())
	r.KeepGoing = true
	r.Chaos = &ChaosConfig{Bench: "TRu", Policy: "*", Mode: ChaosError}
	tab, err := r.Violin("fig14")
	if err != nil {
		t.Fatalf("keep-going Fig14 aborted: %v", err)
	}
	var na, healthy int
	for _, row := range tab.Rows {
		if math.IsNaN(row.Summary.Mean) {
			na++
		} else {
			healthy++
		}
	}
	if na == 0 || healthy == 0 {
		t.Fatalf("violin rows: %d NA, %d healthy; want both present", na, healthy)
	}
}
