package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// ErrStall is the sentinel every executor stall unwraps to: a run that
// stopped making forward progress (a blocked shader core with pending
// work, or watchdog-detected livelock) returns a *StallError instead of
// panicking, and callers select on the class with
// errors.Is(err, ErrStall).
var ErrStall = errors.New("pipeline: executor stalled")

// SCStallState is one shader core's scheduler-visible state at the
// moment a stall was declared, for the diagnostic dump.
type SCStallState struct {
	ID            int    `json:"id"`
	Clock         int64  `json:"clock"`          // local clock, cycles
	ResidentWarps int    `json:"resident_warps"` // warps holding a slot
	QueuedQuads   int    `json:"queued_quads"`   // un-admitted quads in the current input stream
	InputGate     int64  `json:"input_gate"`     // earliest admission cycle of that input
	Retired       uint64 `json:"retired"`        // quads retired so far
	// Held is "fill" or "retire" while the SC holds a step that ran
	// ahead of global order and waits to take its shared part: the
	// sample's L2 fills or the retire of its last quad (engineState.holds).
	Held string `json:"held,omitempty"`
}

// StallError is the structured diagnostic an executor returns when it
// deadlocks or livelocks: instead of killing the process it carries the
// engine state needed to debug the scheduling bug — the cycle, the
// per-SC queue depths, the decoupled barrier window and the in-flight
// tile. It unwraps to ErrStall.
// The JSON field names are part of the serving API: the dtexld service
// returns the dump verbatim inside structured 500 bodies, and the
// round-trip is pinned by TestStallErrorJSONRoundTrip.
type StallError struct {
	Mode   string `json:"mode"`   // "coupled", "decoupled" or "imr"
	Reason string `json:"reason"` // what the watchdog observed
	Cycle  int64  `json:"cycle"`  // max SC clock when the stall was declared
	Steps  int    `json:"steps"`  // scheduling steps taken without progress

	// TileSeq/TileX/TileY locate the in-flight tile: the tile being
	// drained (coupled), the window's oldest unretired tile (decoupled)
	// or the primitive batch (IMR, TileX/TileY unused).
	TileSeq int `json:"tile_seq"`
	TileX   int `json:"tile_x"`
	TileY   int `json:"tile_y"`
	// WindowLo, WindowHi is the decoupled barrier window [lo, hi)
	// (zero for the other modes).
	WindowLo int `json:"window_lo"`
	WindowHi int `json:"window_hi"`

	SCs []SCStallState `json:"scs"`
}

// Error summarizes the stall in one line; Dump has the full state.
func (e *StallError) Error() string {
	return fmt.Sprintf("pipeline: %s executor stalled at cycle %d (%s; tile seq %d, window [%d,%d), %d steps without progress)",
		e.Mode, e.Cycle, e.Reason, e.TileSeq, e.WindowLo, e.WindowHi, e.Steps)
}

// Unwrap makes errors.Is(err, ErrStall) true for every stall.
func (e *StallError) Unwrap() error { return ErrStall }

// Dump renders the full state dump, one SC per line — the diagnostic
// that replaced the former bare deadlock panics.
func (e *StallError) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", e.Error())
	fmt.Fprintf(&b, "  mode=%s cycle=%d steps=%d\n", e.Mode, e.Cycle, e.Steps)
	fmt.Fprintf(&b, "  in-flight tile: seq=%d (%d,%d)  window: lo=%d hi=%d\n",
		e.TileSeq, e.TileX, e.TileY, e.WindowLo, e.WindowHi)
	for _, sc := range e.SCs {
		fmt.Fprintf(&b, "  SC%d: clock=%d warps=%d queued=%d gate=%d retired=%d",
			sc.ID, sc.Clock, sc.ResidentWarps, sc.QueuedQuads, sc.InputGate, sc.Retired)
		if sc.Held != "" {
			fmt.Fprintf(&b, " held=%s", sc.Held)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// scStallStates snapshots the shader cores for a stall dump.
func scStallStates(scs []*scState) []SCStallState {
	out := make([]SCStallState, len(scs))
	for i, sc := range scs {
		st := SCStallState{
			ID:            sc.id,
			Clock:         sc.clock,
			ResidentWarps: len(sc.warps),
			Retired:       sc.quadsRetired,
		}
		if sc.inTile != nil {
			st.QueuedQuads = len(sc.inTile.perSC[sc.id]) - sc.inPos
			st.InputGate = sc.inGate
		}
		if sc.held {
			st.Held = "fill"
			if sc.heldLines == nil {
				st.Held = "retire"
			}
		}
		out[i] = st
	}
	return out
}

func maxClock(scs []*scState) int64 {
	var m int64
	for _, sc := range scs {
		if sc.clock > m {
			m = sc.clock
		}
	}
	return m
}

// defaultWatchdogSteps is the livelock threshold when
// Config.WatchdogSteps is zero. Legitimate execution can take at most a
// few warp-slots' worth of scheduling steps without advancing any SC
// clock or retiring a quad (admissions and zero-length compute segments
// are bounded by the resident warps), so tens of steps would already be
// safe; 1<<16 leaves orders of magnitude of margin while still firing
// in well under a millisecond of wall time.
const defaultWatchdogSteps = 1 << 16

// ctxCheckInterval is how many scheduling steps pass between context
// cancellation polls: frequent enough that cancellation and deadlines
// land promptly, rare enough to stay off the hot path.
const ctxCheckInterval = 1 << 12

// watchdog guards an executor drive loop: it polls the run's context
// every ctxCheckInterval steps and counts scheduling steps that advance
// neither any SC clock nor the retired-quad count, converting livelock
// into a diagnosable stall instead of a hung process.
type watchdog struct {
	ctx        context.Context
	chaos      bool // chaos-stall injection: never step, exhaust the budget
	limit      int
	noProgress int
	sinceCheck int
}

func newWatchdog(ctx context.Context, cfg Config) watchdog {
	return watchdog{ctx: ctx, chaos: chaosStallEnabled(ctx), limit: cfg.watchdogLimit()}
}

// chaosTick consumes one injected-livelock iteration and reports whether
// the watchdog budget is exhausted (time to declare the stall).
func (w *watchdog) chaosTick() bool {
	w.noProgress++
	return w.noProgress > w.limit
}

// idleTick counts a drive-loop iteration that could not step any SC
// (e.g. the decoupled window refusing to extend); it reports whether
// the watchdog budget is exhausted.
func (w *watchdog) idleTick() bool {
	w.noProgress++
	return w.noProgress > w.limit
}

// step advances sc one scheduling decision under the guard. It returns
// a non-empty stall reason when the core is blocked with pending work
// or the livelock threshold is crossed, and a non-nil error when the
// context is canceled or past its deadline.
func (w *watchdog) step(es *engineState, sc *scState) (reason string, err error) {
	w.sinceCheck++
	if w.sinceCheck >= ctxCheckInterval {
		w.sinceCheck = 0
		if cerr := w.ctx.Err(); cerr != nil {
			return "", cerr
		}
	}
	clock, retired := sc.clock, sc.quadsRetired
	if !sc.step(es) {
		return "shader core blocked with pending work", nil
	}
	if sc.clock != clock || sc.quadsRetired != retired {
		w.noProgress = 0
		return "", nil
	}
	w.noProgress++
	if w.noProgress > w.limit {
		return "no cycle progress (livelock)", nil
	}
	return "", nil
}

// chaosStallKey flags a context for deterministic livelock injection.
type chaosStallKey struct{}

// WithChaosStall returns a context under which every executor
// deterministically livelocks until its watchdog fires, producing a
// genuine StallError with a real state dump. It exists for fault
// injection: tests (and sim.ChaosConfig) use it to exercise the stall,
// isolation and degradation paths without a real scheduling bug.
func WithChaosStall(ctx context.Context) context.Context {
	return context.WithValue(ctx, chaosStallKey{}, true)
}

func chaosStallEnabled(ctx context.Context) bool {
	v, _ := ctx.Value(chaosStallKey{}).(bool)
	return v
}
