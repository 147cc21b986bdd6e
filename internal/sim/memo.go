package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"dtexl/internal/pipeline"
)

// memo is a concurrency-safe, single-flight memo table — the one in
// this package and in internal/trace. The first caller of do for a key
// computes the value while concurrent callers for the same key block on
// the flight instead of duplicating the work. A computation that
// returns an error (or panics) removes its entry before releasing its
// waiters, so the table never holds a partial result that a later read
// would treat as complete — later calls simply retry.
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
				// A forget may already have handed the key to a new flight.
				if m.flights[key] == f {
					delete(m.flights, key)
				}
				m.mu.Unlock()
			}
			close(f.done)
		}()
		f.val, f.err = fn()
		completed = true
		return f.val, f.err
	}
}

// forget drops key's entry, so the next call computes it afresh. A
// flight still running finishes for the callers already waiting on it.
func (m *memo[K, V]) forget(key K) {
	m.mu.Lock()
	delete(m.flights, key)
	m.mu.Unlock()
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

// prepStore is the memo of PreparedFrames plus their residency: built
// frames count against a byte budget, least recently used out first,
// and a frame built for a planned cell (Warm) also leaves as soon as no
// planned cell still needs it. A frame leaves by memo.forget, so the
// next call for it rebuilds.
type prepStore struct {
	frames *memo[prepKey, *pipeline.PreparedFrame]

	mu       sync.Mutex
	budget   int64
	used     int64 // bytes of the resident frames
	clock    uint64
	lastUse  map[prepKey]uint64   // when the latest call for each frame started
	resident map[prepKey]resident // built frames the memo still holds
	needs    map[prepKey]int      // queued planned cells per frame
	// peakHeld and peakUsed are the most resident frames, and bytes,
	// held at once.
	peakHeld int
	peakUsed int64
}

// resident is one built frame's share of the budget.
type resident struct {
	size    int64
	planned bool // built for a planned cell
}

func newPrepStore(budget int64) *prepStore {
	if budget == 0 {
		budget = defaultPrepBudget
	}
	return &prepStore{
		frames:   newMemo[prepKey, *pipeline.PreparedFrame](),
		budget:   budget,
		lastUse:  make(map[prepKey]uint64),
		resident: make(map[prepKey]resident),
		needs:    make(map[prepKey]int),
	}
}

// do returns the memoized preparation for key, building it with fn on
// first use (for a planned cell when planned is set). Each call stamps
// the frame's recency when it starts; a completed build evicts
// least-recently-used frames beyond the byte budget.
func (s *prepStore) do(ctx context.Context, key prepKey, planned bool, fn func() (*pipeline.PreparedFrame, error)) (*pipeline.PreparedFrame, error) {
	s.mu.Lock()
	s.clock++
	now := s.clock
	s.lastUse[key] = now
	s.mu.Unlock()
	return s.frames.do(ctx, key, func() (*pipeline.PreparedFrame, error) {
		p, err := fn()
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		size := p.SizeBytes()
		s.resident[key] = resident{size: size, planned: planned}
		// A drop since this call started may have removed its stamp.
		s.lastUse[key] = max(s.lastUse[key], now)
		s.used += size
		s.peakHeld = max(s.peakHeld, len(s.resident))
		s.peakUsed = max(s.peakUsed, s.used)
		s.evictLocked(key)
		return p, nil
	})
}

// evictLocked drops resident frames, least recently used first, until
// the budget is met. The frame under keep is never evicted. Callers
// hold s.mu.
func (s *prepStore) evictLocked(keep prepKey) {
	for s.used > s.budget {
		var victim prepKey
		found := false
		for k := range s.resident {
			if k != keep && (!found || s.lastUse[k] < s.lastUse[victim]) {
				victim, found = k, true
			}
		}
		if !found {
			return
		}
		s.drop(victim)
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
	if r, ok := s.resident[key]; ok && r.planned {
		s.drop(key)
	}
}

// drop forgets a resident frame. Callers hold s.mu.
func (s *prepStore) drop(key prepKey) {
	s.used -= s.resident[key].size
	delete(s.resident, key)
	delete(s.lastUse, key)
	s.frames.forget(key)
}

// stats returns the hit/miss counters and the residency peaks.
func (s *prepStore) stats() (hits, misses uint64, peakHeld int, peakUsed int64) {
	hits, misses = s.frames.stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return hits, misses, s.peakHeld, s.peakUsed
}
