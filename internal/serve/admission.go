// Package serve is the simulation service: it exposes the sim.Runner
// memo stack over HTTP and is built to stay correct under overload.
// A cell already complete in the memo is answered at once. For every
// other cell admission control bounds concurrent work (queue + slots),
// per-request deadlines flow into the executors, degradable requests
// shed fidelity instead of availability, and concurrent identical
// requests coalesce into one in-flight run that survives any single
// client's cancellation (coalesce.go, DESIGN.md §11). SIGTERM drains
// in-flight work while the result store keeps every finished cell. See
// DESIGN.md, "Serving & overload".
package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrOverCapacity is returned by lane.admit when both the slot pool and
// the waiting room are full — the request must be shed (429) or
// degraded, never silently queued without bound.
var ErrOverCapacity = errors.New("serve: over admission capacity")

// lane is one admission-controlled execution class: a fixed pool of
// concurrency slots fronted by a bounded waiting room. A request either
// holds a slot, waits in the room (cancellably), or is rejected
// immediately; nothing queues without bound, so time-to-first-byte is
// bounded by (queue depth / slots + 1) × the per-cell budget.
type lane struct {
	slots chan struct{} // buffered to the concurrency limit
	queue chan struct{} // buffered to the waiting-room depth

	waiting atomic.Int64 // requests parked in the waiting room
	active  atomic.Int64 // requests holding a slot
	shed    atomic.Int64 // requests rejected with ErrOverCapacity
}

// newLane sizes an admission lane. conc is the number of requests that
// may run at once; depth is how many more may wait for a slot.
func newLane(conc, depth int) *lane {
	if conc < 1 {
		conc = 1
	}
	if depth < 0 {
		depth = 0
	}
	return &lane{
		slots: make(chan struct{}, conc),
		queue: make(chan struct{}, depth+conc),
	}
}

// admit acquires one execution slot. It returns a release func on
// success; ErrOverCapacity when the waiting room is full (shed or
// degrade the request — do not block); or ctx's error if the deadline
// lands while waiting for a slot, which is how a cancelled request
// frees its queue position.
func (l *lane) admit(ctx context.Context) (release func(), err error) {
	select {
	case l.queue <- struct{}{}:
	default:
		l.shed.Add(1)
		return nil, ErrOverCapacity
	}
	l.waiting.Add(1)
	defer l.waiting.Add(-1)
	select {
	case l.slots <- struct{}{}:
		l.active.Add(1)
		return func() {
			l.active.Add(-1)
			<-l.slots
			<-l.queue
		}, nil
	case <-ctx.Done():
		<-l.queue
		return nil, ctx.Err()
	}
}

// Stats is one lane's instantaneous admission picture.
type Stats struct {
	Active   int64 `json:"active"`
	Waiting  int64 `json:"waiting"`
	Capacity int   `json:"capacity"`
	Queue    int   `json:"queue"`
	Shed     int64 `json:"shed"`
}

func (l *lane) statsSnapshot() Stats {
	return Stats{
		Active:   l.active.Load(),
		Waiting:  l.waiting.Load(),
		Capacity: cap(l.slots),
		Queue:    cap(l.queue) - cap(l.slots),
		Shed:     l.shed.Load(),
	}
}

// retryAfter estimates how long a shed request should wait before
// retrying: the time for the current queue to drain through the slot
// pool at one cell budget per occupant, floored at one second so
// clients never busy-spin.
func (l *lane) retryAfter(budget time.Duration) time.Duration {
	occupants := l.active.Load() + l.waiting.Load()
	slots := int64(cap(l.slots))
	est := time.Duration((occupants + slots - 1) / slots * int64(budget))
	if est < time.Second {
		est = time.Second
	}
	return est
}
