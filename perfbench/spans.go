package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the recorder started; Parent is the causing
// span (0 for a root) and Req groups the spans of one request or sweep.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the traced run. A nil *recorder is
// the untraced run: every method is a no-op and IDs are 0.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span ID, so a span's children (recorded first, since
// they end first) can name it as their parent.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// add records a finished span under a reserved ID.
func (r *recorder) add(id int64, name string, parent, req int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
	})
}

// begin opens a span and returns its ID and the func that closes it. A
// root span (no parent, no request) starts a request of its own ID.
func (r *recorder) begin(name string, parent, req int64) (int64, func()) {
	id, start := r.id(), time.Now()
	if parent == 0 && req == 0 {
		req = id
	}
	return id, func() { r.add(id, name, parent, req, start, time.Now()) }
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write saves the spans plus per-name self times as JSON at path.
func (r *recorder) write(path string) error {
	spans := r.snapshot()
	self := selfTimes(spans)
	doc := struct {
		SelfNS map[string]int64 `json:"self_ns"`
		Spans  []span           `json:"spans"`
	}{self, spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// covered returns how much of [start, end) the union of ivs covers.
// Children may overlap each other (two workers, two clients), so they
// are merged before summing; parts outside the parent do not count.
func covered(start, end int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], start), min(iv[1], end)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		if open && iv[0] <= curB {
			curB = max(curB, iv[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// children indexes spans by parent ID.
func children(spans []span) map[int64][]span {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

func intervals(ss []span) [][2]int64 {
	ivs := make([][2]int64, len(ss))
	for i, s := range ss {
		ivs[i] = [2]int64{s.Start, s.End}
	}
	return ivs
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover.
func selfTimes(spans []span) map[string]int64 {
	kids := children(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s.Start, s.End, intervals(kids[s.ID]))
	}
	return out
}

// explainedRatio is the share of root-span time (end-to-end time) that
// the roots' direct child spans (the layers) cover.
func explainedRatio(spans []span) float64 {
	kids := children(spans)
	var total, cov int64
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		total += s.dur()
		cov += covered(s.Start, s.End, intervals(kids[s.ID]))
	}
	if total == 0 {
		return 0
	}
	return float64(cov) / float64(total)
}
