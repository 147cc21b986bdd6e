package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"dtexl/internal/pipeline"
)

// memo is a concurrency-safe, single-flight memo table. The first caller
// of do for a key computes the value while concurrent callers for the
// same key block on the flight instead of duplicating the work. A
// computation that returns an error (or panics) removes its entry before
// releasing its waiters, so the table never holds a partial result that
// a later read would treat as complete — later calls simply retry.
//
// Waits are cancellable: a waiter whose context ends returns its
// context error immediately without disturbing the flight. Conversely,
// when the *computing* caller is cancelled, its waiters do not inherit
// that foreign context error — the failed entry has already been
// removed, so a still-live waiter retries (becoming the new computer if
// it gets there first). Serving-path requests therefore never fail just
// because the request that happened to arrive first gave up.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*flight[V]
	hits    uint64
	misses  uint64
}

// flight is one in-progress or completed computation. done is closed
// exactly once, after val/err are final.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newMemo[K comparable, V any]() *memo[K, V] {
	return &memo[K, V]{flights: make(map[K]*flight[V])}
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline error — the classes a waiter should not inherit from a
// computing caller whose lifetime is unrelated to its own.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// do returns the memoized value for key, computing it with fn on first
// use. A panicking fn is recovered into an error: the computing caller
// and every waiter receive it, and the panic never escapes to kill a
// pool worker goroutine. Waiting on another caller's in-flight
// computation respects ctx; fn itself is responsible for observing ctx
// (the Runner threads it into the executors).
func (m *memo[K, V]) do(ctx context.Context, key K, fn func() (V, error)) (val V, err error) {
	for {
		m.mu.Lock()
		if f, ok := m.flights[key]; ok {
			m.hits++
			m.mu.Unlock()
			// A completed flight is served even under a dead context: ctx
			// guards only the blocking wait, never a cache hit.
			select {
			case <-f.done:
			default:
				select {
				case <-f.done:
				case <-ctx.Done():
					var zero V
					return zero, ctx.Err()
				}
			}
			if f.err != nil && isCtxErr(f.err) && ctx.Err() == nil {
				// The computer was cancelled or timed out under its own
				// context while ours is still live; its entry is gone, so
				// retry rather than propagate a foreign cancellation.
				continue
			}
			return f.val, f.err
		}
		f := &flight[V]{done: make(chan struct{})}
		m.flights[key] = f
		m.misses++
		m.mu.Unlock()

		completed := false
		defer func() {
			if !completed {
				f.err = fmt.Errorf("sim: memoized computation panicked: %v\n%s", recover(), debug.Stack())
				var zero V
				val, err = zero, f.err
			}
			if f.err != nil {
				m.mu.Lock()
				delete(m.flights, key)
				m.mu.Unlock()
			}
			close(f.done)
		}()
		f.val, f.err = fn()
		completed = true
		return f.val, f.err
	}
}

// stats returns the hit/miss counters (hits include waits on a flight
// that was still in progress).
func (m *memo[K, V]) stats() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// prepKey identifies one shareable PreparedFrame: the benchmark's frame-0
// scene plus the front-half configuration projection. Policies, SC
// counts, L1 texture sizes and warp parameters deliberately do not
// appear — preparations are shared across all of them.
type prepKey struct {
	Alias string
	Seed  uint64
	Front pipeline.FrontKey
}

// defaultPrepBudget bounds the retained bytes of prepared frames. At the
// paper's full resolution a preparation is ~100 MiB, so the default
// holds a few dozen; past the budget the least-recently-used completed
// preparations are dropped and recomputed on next use.
const defaultPrepBudget = 4 << 30

// prepStore memoizes PreparedFrames with single-flight dedup (same
// error-path and cancellable-wait contract as memo) plus an LRU byte
// budget. A frame built for a planned cell (Warm) also leaves as soon
// as no planned cell still needs it.
type prepStore struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	held    int // completed frames
	entries map[prepKey]*prepEntry
	needs   map[prepKey]int // queued planned cells per frame
	clock   uint64
	hits    uint64
	misses  uint64
	// peakHeld and peakUsed are the most completed frames, and bytes,
	// held at once.
	peakHeld int
	peakUsed int64
}

type prepEntry struct {
	done    chan struct{}
	prep    *pipeline.PreparedFrame
	err     error
	size    int64 // 0 until completed
	lastUse uint64
	planned bool // built for a planned cell
}

func newPrepStore(budget int64) *prepStore {
	if budget == 0 {
		budget = defaultPrepBudget
	}
	return &prepStore{budget: budget, entries: make(map[prepKey]*prepEntry), needs: make(map[prepKey]int)}
}

// do returns the memoized preparation for key, building it with fn on
// first use (for a planned cell when planned is set) and evicting
// least-recently-used preparations beyond the byte budget. Waits on
// another caller's in-flight build respect ctx, with the same
// cancelled-computer retry contract as memo.do.
func (s *prepStore) do(ctx context.Context, key prepKey, planned bool, fn func() (*pipeline.PreparedFrame, error)) (prep *pipeline.PreparedFrame, err error) {
	for {
		s.mu.Lock()
		s.clock++
		if e, ok := s.entries[key]; ok {
			e.lastUse = s.clock
			s.hits++
			s.mu.Unlock()
			select {
			case <-e.done:
			default:
				select {
				case <-e.done:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			if e.err != nil && isCtxErr(e.err) && ctx.Err() == nil {
				continue
			}
			return e.prep, e.err
		}
		e := &prepEntry{done: make(chan struct{}), lastUse: s.clock, planned: planned}
		s.entries[key] = e
		s.misses++
		s.mu.Unlock()

		completed := false
		defer func() {
			if !completed {
				// Recover the panic so it cannot kill a pool worker; waiters
				// and the computing caller all see the error.
				e.err = fmt.Errorf("sim: frame preparation panicked: %v\n%s", recover(), debug.Stack())
				prep, err = nil, e.err
			}
			s.mu.Lock()
			if e.err != nil {
				delete(s.entries, key)
			} else {
				e.size = e.prep.SizeBytes()
				s.used += e.size
				s.held++
				s.peakHeld = max(s.peakHeld, s.held)
				s.peakUsed = max(s.peakUsed, s.used)
				s.evictLocked(key)
			}
			s.mu.Unlock()
			close(e.done)
		}()
		e.prep, e.err = fn()
		completed = true
		return e.prep, e.err
	}
}

// evictLocked drops completed entries, least recently used first, until
// the budget is met. The entry under `keep` and in-flight entries are
// never evicted. Callers hold s.mu.
func (s *prepStore) evictLocked(keep prepKey) {
	for s.used > s.budget {
		var victim prepKey
		var ve *prepEntry
		for k, e := range s.entries {
			if k == keep || e.size == 0 {
				continue
			}
			if ve == nil || e.lastUse < ve.lastUse {
				victim, ve = k, e
			}
		}
		if ve == nil {
			return
		}
		s.drop(victim, ve)
	}
}

// need adds n (negative when cells finish) to the planned cells still
// to read key's frame. At zero a frame built for planned cells leaves.
func (s *prepStore) need(key prepKey, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.needs[key] += n; s.needs[key] > 0 {
		return
	}
	delete(s.needs, key)
	if e, ok := s.entries[key]; ok && e.planned && e.size > 0 {
		s.drop(key, e)
	}
}

// drop removes a completed entry. Callers hold s.mu.
func (s *prepStore) drop(key prepKey, e *prepEntry) {
	s.used -= e.size
	s.held--
	delete(s.entries, key)
}

// stats returns the hit/miss counters and the residency peaks.
func (s *prepStore) stats() (hits, misses uint64, peakHeld int, peakUsed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.peakHeld, s.peakUsed
}
