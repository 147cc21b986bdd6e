package sim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtexl/internal/core"
)

// TestMemoWaiterCancellable: a waiter blocked on another caller's
// in-flight computation returns its own context error promptly instead
// of blocking until the computation finishes.
func TestMemoWaiterCancellable(t *testing.T) {
	m := newMemo[int, int]()
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.do(context.Background(), 1, func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() {
		_, err := m.do(ctx, 1, func() (int, error) { return 2, nil })
		waited <- err
	}()
	cancel()
	select {
	case err := <-waited:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked on the in-flight computation")
	}

	// The computation itself is undisturbed: release it and confirm the
	// value is memoized.
	close(release)
	<-done
	v, err := m.do(context.Background(), 1, func() (int, error) { return -1, nil })
	if err != nil || v != 1 {
		t.Fatalf("after cancel: got %d, %v; want the original computation's 1", v, err)
	}
}

// TestMemoCompletedFlightIgnoresCtx: a key whose computation already
// completed is served even under a cancelled context — the cancellable
// select only guards the blocking wait, never a cache hit.
func TestMemoCompletedFlightIgnoresCtx(t *testing.T) {
	m := newMemo[int, int]()
	if _, err := m.do(context.Background(), 1, func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := m.do(ctx, 1, func() (int, error) { return -1, nil })
	if err != nil || v != 1 {
		t.Fatalf("completed flight under cancelled ctx: got %d, %v; want 1, nil", v, err)
	}
}

// TestMemoWaiterRetriesCancelledComputer: when the computing caller is
// cancelled under its own context, a still-live waiter must not inherit
// that foreign cancellation — the failed entry is gone, so the waiter
// retries and computes the value itself.
func TestMemoWaiterRetriesCancelledComputer(t *testing.T) {
	m := newMemo[int, int]()
	compCtx, cancelComp := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		m.do(context.Background(), 1, func() (int, error) {
			close(started)
			<-compCtx.Done() // the "executor" observing its request context
			return 0, compCtx.Err()
		})
	}()
	<-started

	waited := make(chan struct{})
	var got int
	var gotErr error
	var retried int32
	go func() {
		defer close(waited)
		got, gotErr = m.do(context.Background(), 1, func() (int, error) {
			atomic.AddInt32(&retried, 1)
			return 7, nil
		})
	}()
	cancelComp()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never returned after the computer was cancelled")
	}
	if gotErr != nil || got != 7 {
		t.Fatalf("waiter got (%d, %v), want (7, nil) via retry", got, gotErr)
	}
	if atomic.LoadInt32(&retried) != 1 {
		t.Fatalf("retry count = %d, want 1", retried)
	}
}

// TestRunOneCtxWaiterCancel drives the same contract end to end through
// the Runner: one request computes a cell while a second, cancelled
// request waiting on the same cell returns promptly with its own
// context error — today's serving path for "a cancelled request stops
// blocking on a cell another goroutine is computing".
func TestRunOneCtxWaiterCancel(t *testing.T) {
	r := NewRunner(faultOptions())
	// Livelock the computation so the first request holds the flight
	// until its own deadline.
	r.Chaos = &ChaosConfig{Bench: "CCS", Policy: "baseline", Mode: ChaosStall}

	compStarted := make(chan struct{})
	compDone := make(chan error, 1)
	go func() {
		close(compStarted)
		_, err := r.RunOneCtx(context.Background(), "CCS", core.Baseline(), nil)
		compDone <- err
	}()
	<-compStarted

	// Second request for the same cell with a short deadline: it must
	// give up on the wait at its deadline, not at the watchdog's.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.RunOneCtx(ctx, "CCS", core.Baseline(), nil)
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		// The waiter may also have become the computer after the first
		// request stalled; then it sees the stall or its own deadline.
		t.Logf("waiter error: %v (acceptable if context-derived)", err)
	}
	if err == nil {
		t.Fatal("deadline-bounded waiter returned nil while the cell was livelocked")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("waiter took %v to observe its deadline", elapsed)
	}
	if err := <-compDone; err == nil {
		t.Fatal("livelocked computation returned nil")
	}
}

// TestWarmSurvivesCancelledWaiters: cancelled waiters racing with live
// Warm workers over shared cells must not corrupt the memo stack. Run
// under -race in CI.
func TestWarmSurvivesCancelledWaiters(t *testing.T) {
	r := NewRunner(faultOptions())
	r.Parallelism = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				r.RunOneCtx(ctx, "TRu", core.Baseline(), nil)
				cancel()
			}
		}()
	}
	err := r.Warm([]CellSpec{
		{Bench: "TRu", Policy: "baseline"},
		{Bench: "CCS", Policy: "baseline"},
		{Bench: "TRu", Policy: "DTexL"},
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Warm failed amid cancelled waiters: %v", err)
	}
	// The cells are intact and served from memo.
	if _, err := r.RunOneWith("TRu", core.Baseline(), nil); err != nil {
		t.Fatalf("cell unusable after cancelled-waiter churn: %v", err)
	}
}
