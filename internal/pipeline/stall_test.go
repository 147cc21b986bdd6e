package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// stallConfig returns a small configuration with a fast-firing watchdog,
// so injected livelocks are declared in microseconds instead of the
// production threshold.
func stallConfig() Config {
	cfg := testConfig()
	cfg.WatchdogSteps = 128
	return cfg
}

// assertStall checks the structured-stall contract the executors share:
// the error unwraps to ErrStall, carries the executor mode and a full
// per-SC dump, and never reaches the caller as a panic.
func assertStall(t *testing.T, err error, mode string, numSC int) *StallError {
	t.Helper()
	if err == nil {
		t.Fatal("stalled run returned nil error")
	}
	if !errors.Is(err, ErrStall) {
		t.Fatalf("error does not unwrap to ErrStall: %v", err)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a *StallError: %v", err)
	}
	if se.Mode != mode {
		t.Errorf("Mode = %q, want %q", se.Mode, mode)
	}
	if se.Steps == 0 {
		t.Error("Steps = 0, want the exhausted watchdog budget")
	}
	if len(se.SCs) != numSC {
		t.Errorf("dump has %d SCs, want %d", len(se.SCs), numSC)
	}
	dump := se.Dump()
	for _, want := range []string{"mode=" + mode, "SC0:", "in-flight tile"} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump() missing %q:\n%s", want, dump)
		}
	}
	return se
}

// TestChaosStallCoupled is the regression test for the former coupled
// drainAll deadlock panic: a stalled coupled executor must return a
// diagnosable *StallError, not kill the process.
func TestChaosStallCoupled(t *testing.T) {
	cfg := stallConfig()
	scene := testScene(t, "TRu", cfg)
	_, err := RunContext(WithChaosStall(context.Background()), scene, cfg)
	se := assertStall(t, err, "coupled", cfg.NumSC)
	if se.Reason == "" {
		t.Error("empty stall reason")
	}
}

// TestChaosStallDecoupled covers the decoupled executor's two former
// panic sites (blocked SC, window livelock) via the same watchdog path.
func TestChaosStallDecoupled(t *testing.T) {
	cfg := stallConfig()
	cfg.Decoupled = true
	scene := testScene(t, "TRu", cfg)
	_, err := RunContext(WithChaosStall(context.Background()), scene, cfg)
	se := assertStall(t, err, "decoupled", cfg.NumSC)
	if se.WindowHi < se.WindowLo {
		t.Errorf("window [%d,%d) is inverted", se.WindowLo, se.WindowHi)
	}
}

// TestChaosStallIMR covers the IMR executor's former deadlock panic.
func TestChaosStallIMR(t *testing.T) {
	cfg := stallConfig()
	scene := testScene(t, "TRu", cfg)
	_, err := RunIMRContext(WithChaosStall(context.Background()), scene, cfg)
	assertStall(t, err, "imr", cfg.NumSC)
}

// TestRunContextCanceled verifies a canceled context aborts a run with
// the context's error instead of completing or hanging.
func TestRunContextCanceled(t *testing.T) {
	cfg := testConfig()
	scene := testScene(t, "TRu", cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, scene, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunPreparedContextCanceled exercises the mid-raster cancellation
// path: RunPreparedContext has no per-frame check, so the abort must
// come from the executor watchdog's periodic context poll.
func TestRunPreparedContextCanceled(t *testing.T) {
	cfg := testConfig()
	scene := testScene(t, "TRu", cfg)
	prep, err := PrepareFrame(scene, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunPreparedContext(ctx, prep, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextDeadline verifies deadline expiry surfaces as
// context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	cfg := testConfig()
	scene := testScene(t, "TRu", cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 1)
	defer cancel()
	if _, err := RunContext(ctx, scene, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestWatchdogStepsValidation pins the new Config field's bounds.
func TestWatchdogStepsValidation(t *testing.T) {
	cfg := testConfig()
	cfg.WatchdogSteps = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative WatchdogSteps validated")
	}
	cfg.WatchdogSteps = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero WatchdogSteps (use default) rejected: %v", err)
	}
	if got := cfg.watchdogLimit(); got != defaultWatchdogSteps {
		t.Fatalf("watchdogLimit() = %d, want default %d", got, defaultWatchdogSteps)
	}
}

// TestCleanRunsStayClean guards against watchdog false positives: every
// healthy executor mode must still complete under the production
// threshold.
func TestCleanRunsStayClean(t *testing.T) {
	for _, mode := range []string{"coupled", "decoupled", "imr"} {
		cfg := testConfig()
		scene := testScene(t, "CCS", cfg)
		var err error
		switch mode {
		case "coupled":
			_, err = RunContext(context.Background(), scene, cfg)
		case "decoupled":
			cfg.Decoupled = true
			_, err = RunContext(context.Background(), scene, cfg)
		case "imr":
			_, err = RunIMRContext(context.Background(), scene, cfg)
		}
		if err != nil {
			t.Errorf("%s: clean run failed: %v", mode, err)
		}
	}
}

// TestStallDumpShowsHeldStep: an SC that ran ahead and holds a step
// waiting for global order is marked in the dump, as "fill" for a
// sample's L2 fills and "retire" for the retire of its last quad, and
// the field is omitted from the JSON of every other SC.
func TestStallDumpShowsHeldStep(t *testing.T) {
	held := &scState{id: 1, warps: []warpState{{samples: 2}}, ready: []int64{0}, held: true, heldLines: []uint32{7}}
	se := &StallError{Mode: "decoupled", SCs: scStallStates([]*scState{{id: 0}, held})}
	if se.SCs[0].Held != "" || se.SCs[1].Held != "fill" {
		t.Fatalf("held = %q, %q; want \"\", \"fill\"", se.SCs[0].Held, se.SCs[1].Held)
	}
	held.heldLines = nil
	se.SCs = scStallStates([]*scState{{id: 0}, held})
	if se.SCs[1].Held != "retire" {
		t.Fatalf("held = %q without lines, want \"retire\"", se.SCs[1].Held)
	}
	if dump := se.Dump(); !strings.Contains(dump, "SC1: clock=0 warps=1 queued=0 gate=0 retired=0 held=retire\n") ||
		strings.Contains(dump, "SC0: clock=0 warps=0 queued=0 gate=0 retired=0 held") {
		t.Errorf("dump does not mark exactly the held SC:\n%s", dump)
	}
	raw, err := json.Marshal(se.SCs)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), `"held":`); n != 1 {
		t.Errorf("%d SCs carry a held field in %s, want 1", n, raw)
	}
}
