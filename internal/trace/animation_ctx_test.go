package trace_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/sim"
)

// TestAnimationContextWaiterCancellable: generated animations are cached
// in sim.Runner's scene memo and read under the caller's context. A
// caller blocked on another goroutine's in-flight run of the same cell
// returns its context error promptly; the run completes undisturbed,
// and the animation it generated stays cached for the next policy.
func TestAnimationContextWaiterCancellable(t *testing.T) {
	opt := sim.ScaledOptions(8)
	opt.Benchmarks = []string{"TRu"}
	r := sim.NewRunner(opt)
	// Hold the first run's flight open in its progress report, which it
	// makes after generating the animation and simulating the cell.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	inFlight := make(chan struct{})
	reported := sync.OnceFunc(func() { close(inFlight) })
	r.Progress = func(string) {
		reported()
		<-gate
	}

	runDone := make(chan error, 1)
	go func() {
		_, err := r.RunOneWith("TRu", core.DTexL(), nil)
		runDone <- err
	}()
	select {
	case <-inFlight:
	case <-time.After(time.Minute):
		t.Fatal("the first run never reached its progress report")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waited := make(chan error, 1)
	go func() {
		_, err := r.RunOneCtx(ctx, "TRu", core.DTexL(), nil)
		waited <- err
	}()
	select {
	case err := <-waited:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked on the in-flight run")
	}

	release()
	if err := <-runDone; err != nil {
		t.Fatalf("the first run failed: %v", err)
	}
	// The completed cell is served under a cancelled context, and the
	// next policy reads the cached animation instead of generating it.
	if _, err := r.RunOneCtx(ctx, "TRu", core.DTexL(), nil); err != nil {
		t.Fatalf("completed cell under a cancelled context: %v", err)
	}
	if _, err := r.RunOneWith("TRu", core.Baseline(), nil); err != nil {
		t.Fatal(err)
	}
	if tm := r.Timing(); tm.SceneMisses != 1 || tm.SceneHits != 1 {
		t.Errorf("scene memo hits/misses = %d/%d, want 1/1 (one animation, generated once)", tm.SceneHits, tm.SceneMisses)
	}
}
