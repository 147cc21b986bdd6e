package pipeline

import (
	"math"
	"math/bits"

	"dtexl/internal/cache"
	"dtexl/internal/trace"
)

// warpState is one resident quad-warp in a shader core. A quad executes
// stages 0..samples: each stage runs a slice of the ALU instructions and,
// except for the last, issues one texture sample whose latency parks the
// warp until the data returns. The warp's ready time lives in the SC's
// parallel `ready` array, not here: the scheduler scans ready times every
// step, and a dense int64 array keeps that scan inside a couple of cache
// lines instead of striding across one warpState per line.
type warpState struct {
	tile  *tileWork
	stage int8 // next stage to execute (0..samples)
	// samples, seg0, segN and firstSpan are copied out of the quad at
	// admission: exec runs once per stage, and reading them here avoids
	// chasing tile -> cover -> quad on every issue.
	samples    int8
	seg0, segN int16
	firstSpan  int32
	// prefetched marks that the quad's texture lines were fetched at
	// admission (decoupled prefetch); fills holds each sample's fill
	// completion time.
	prefetched bool
	fills      [trace.MaxShaderSamples]int64
}

// scState is an in-order, single-issue, fine-grained multithreaded shader
// core: one ALU instruction per cycle from whichever resident warp is
// ready; switch-on-sample. Texture latency is hidden exactly to the
// extent other warps have instructions to issue — which is how periods of
// low occupancy (tile drain under coupled barriers) expose memory
// latency (§V-C2).
type scState struct {
	id    int
	clock int64
	busy  int64 // cycles spent issuing instructions
	// Stall attribution (see breakdown.go): every clock advance that is
	// not busy execution lands in exactly one of these counters, so
	// busy + texWait + barrierWait + queueEmpty == clock at all times.
	texWait     int64 // clock jumps to the earliest texture-fill return
	barrierWait int64 // coupled barrier alignment up to the release point
	queueEmpty  int64 // waits for raster supply / bank-flush gates
	warps       []warpState
	// ready[i] is the cycle warps[i] may issue again (parallel to warps;
	// see warpState).
	ready []int64
	// fillFree is when each L1 fill port becomes free again. The small
	// per-SC texture L1 has a limited number of outstanding misses
	// (MSHRs); misses beyond that queue, so a stream with a high miss
	// rate saturates its fill ports and exposes memory latency even with
	// spare warps — the effect that turns the caching win into a
	// performance win (§V-C2).
	fillFree []int64

	// input stream: quads this SC still has to admit, as (tile, index
	// into tile.perSC[id]) supplied by the executor.
	inTile *tileWork
	inPos  int
	inGate int64 // earliest cycle input quads may be admitted

	quadsRetired uint64
	lastRetire   int64
	// rrNext is the round-robin warp scheduler's rotation pointer.
	rrNext int

	// held marks a step that ran its private part ahead of global order
	// and holds its shared part (see engineState.holds): the L2 fills of
	// warp heldWarp's sample heldLines, whose L1 probe left the miss mask
	// heldMiss, or, with no lines, the retire of the SC's last quad. The
	// SC's clock stays at the step's start until the kernel completes it.
	held      bool
	heldWarp  int
	heldLines []uint32
	heldMiss  uint64
}

// setInput points the SC at its quad queue for one tile. gate is the
// earliest admission time (the barrier/availability time).
func (sc *scState) setInput(tw *tileWork, gate int64) {
	sc.inTile = tw
	sc.inPos = 0
	sc.inGate = gate
}

// hasInput reports whether un-admitted quads remain in the current input.
func (sc *scState) hasInput() bool {
	return sc.inTile != nil && sc.inPos < len(sc.inTile.perSC[sc.id])
}

// pending reports whether the SC still has any work: resident warps or
// un-admitted input.
func (sc *scState) pending() bool {
	return len(sc.warps) > 0 || sc.hasInput()
}

// segLen returns the ALU instruction count of stage `stage` for a quad
// with the given totals: instructions are split evenly across the
// samples+1 compute segments, remainder to the first.
func segLen(instr int16, samples, stage int8) int64 {
	segs := int64(samples) + 1
	base := int64(instr) / segs
	if stage == 0 {
		return base + int64(instr)%segs
	}
	return base
}

// step advances the SC by one scheduling decision and returns false if it
// is blocked (nothing resident, nothing admissible — the executor must
// resolve a gate first). The SC issues work for, or jumps its clock to,
// the earliest actionable event.
func (sc *scState) step(e *engineState) bool {
	if sc.held {
		// The kernel picked the SC, so the held step's key is the global
		// minimum: its shared part runs now.
		sc.exec(e, sc.heldWarp)
		if e.sampler != nil && sc.clock >= e.sampler.next[sc.id] {
			e.sampler.cross(sc)
		}
		return true
	}
	// Admit as many quads as fit: warp slots are filled greedily so
	// latency hiding is maximal.
	if sc.inTile != nil && sc.inGate <= sc.clock {
		list := sc.inTile.perSC[sc.id]
		cov := sc.inTile.cov
		for len(sc.warps) < e.cfg.WarpSlots && sc.inPos < len(list) {
			cq := &cov.quads[list[sc.inPos]]
			sc.inPos++
			w := warpState{
				tile:      sc.inTile,
				samples:   cq.samples,
				seg0:      cq.seg0,
				segN:      cq.segN,
				firstSpan: cq.firstSpan,
			}
			if e.cfg.TexturePrefetch {
				sc.prefetch(e, &w)
			}
			sc.warps = append(sc.warps, w)
			sc.ready = append(sc.ready, sc.clock)
		}
	}

	// Pick a resident warp to issue from, per the warp-scheduling policy.
	// The policy only arbitrates among warps that are ready *now*; the
	// earliest-ready warp always determines how far the clock may jump.
	// It is the minimum of the packed keys ready<<shift | index, so ties
	// go to the lowest index without a branch per warp; shift is sized
	// from WarpSlots, and the keys stay exact while ready times are below
	// 2^(63-shift) cycles. The no-op &63 spares each shift Go's
	// oversized-shift guard.
	shift := uint(bits.Len(uint(e.cfg.WarpSlots-1))) & 63
	minKey := int64(math.MaxInt64)
	for i, r := range sc.ready {
		minKey = min(minKey, r<<shift|int64(i))
	}
	resident := len(sc.ready) > 0
	minReady := minKey >> shift

	if resident && minReady <= sc.clock {
		pick, rrNext := sc.schedule(e, int(minKey&(1<<shift-1)), minReady)
		sc.rrNext = rrNext
		sc.exec(e, pick)
		if e.sampler != nil && sc.clock >= e.sampler.next[sc.id] {
			e.sampler.cross(sc)
		}
		return true
	}

	// Nothing issuable now: advance the clock to the next event (warp
	// ready or input gate opening onto a free slot).
	next := int64(-1)
	if resident {
		next = minReady
	}
	fromGate := false
	if sc.hasInput() && len(sc.warps) < e.cfg.WarpSlots && sc.inGate > sc.clock {
		if next < 0 || sc.inGate < next {
			next = sc.inGate
			fromGate = true
		}
	}
	if next <= sc.clock {
		return false // blocked: executor must supply input or a new gate
	}
	// Attribute the jump: a wait for the input gate is raster supply (or
	// a bank-flush gate) running behind — QueueEmpty; a wait for a
	// resident warp's ready time is texture latency the other warps
	// could not cover — TexWait. On a tie the SC is waiting for both;
	// texture is the binding constraint (the gate alone opens no warp
	// until its quads are admitted on the next step), so TexWait wins.
	if fromGate {
		sc.queueEmpty += next - sc.clock
	} else {
		sc.texWait += next - sc.clock
	}
	sc.clock = next
	if e.sampler != nil && sc.clock >= e.sampler.next[sc.id] {
		e.sampler.cross(sc)
	}
	return true
}

// schedule picks the warp to issue per the warp-scheduling policy among
// the warps whose ready time is at or before the clock; best/minReady
// come from the caller's scan of sc.ready. It mutates nothing — the
// round-robin rotation pointer to store on issue is returned instead.
func (sc *scState) schedule(e *engineState, best int, minReady int64) (pick, rrNext int) {
	pick, rrNext = best, sc.rrNext
	ready := sc.ready
	switch e.cfg.WarpSched {
	case WarpSchedRoundRobin:
		// Wraparound arithmetic instead of a modulo per probe; the
		// single % only fires when the warp count shrank since the
		// rotation pointer was last stored.
		n := len(ready)
		i := sc.rrNext
		if i >= n {
			i %= n
		}
		for off := 0; off < n; off++ {
			if ready[i] <= sc.clock {
				pick = i
				rrNext = i + 1
				if rrNext == n {
					rrNext = 0
				}
				break
			}
			if i++; i == n {
				i = 0
			}
		}
	case WarpSchedYoungest:
		for i := len(ready) - 1; i >= 0; i-- {
			if ready[i] <= sc.clock {
				pick = i
				break
			}
		}
	}
	return pick, rrNext
}

// exec runs one stage of warp wi: its compute segment and, if stages
// remain, its next texture sample. The sample's L1 probe runs first,
// since it touches only the SC's own state. A step that needs shared
// state (an L2 fill, or the retire that leaves a decoupled SC without
// work) and started past the kernel's limit holds that part instead;
// the kernel completes it, through exec again, once the step's key is
// the global minimum.
func (sc *scState) exec(e *engineState, wi int) {
	w := &sc.warps[wi]
	var lines []uint32
	var miss uint64
	switch {
	case sc.held:
		sc.held = false
		lines, miss = sc.heldLines, sc.heldMiss
	case w.stage < w.samples:
		if !w.prefetched {
			lines = w.tile.cov.sample(w.firstSpan + int32(w.stage))
			miss = e.hier.ProbeTexture(sc.id, lines)
			if miss != 0 && e.holds(sc) {
				sc.held, sc.heldWarp, sc.heldLines, sc.heldMiss = true, wi, lines, miss
				return
			}
		}
	case e.retire != nil && len(sc.warps) == 1 && !sc.hasInput() && e.holds(sc):
		sc.held, sc.heldWarp, sc.heldLines, sc.heldMiss = true, wi, nil, 0
		return
	}

	seg := int64(w.segN)
	if w.stage == 0 {
		seg = int64(w.seg0)
	}
	sc.clock += seg
	sc.busy += seg
	e.events.ALUInstructions += uint64(seg)

	if w.stage < w.samples {
		var ready int64
		if w.prefetched {
			// Fills were issued at admission; the sample only waits for
			// its data if the fill has not landed yet.
			ready = sc.clock + e.cfg.SampleOverhead + e.cfg.Hierarchy.L1Tex.HitLatency
			if f := w.fills[w.stage]; f > ready {
				ready = f
			}
		} else {
			ready = sc.fillSample(e, lines, miss)
		}
		w.stage++
		sc.ready[wi] = ready
		return
	}

	// Final segment done: retire the quad into blending.
	if e.retire != nil {
		e.retire(sc, w.tile, sc.clock)
	}
	sc.quadsRetired++
	sc.lastRetire = sc.clock
	last := len(sc.warps) - 1
	sc.warps[wi] = sc.warps[last]
	sc.warps = sc.warps[:last]
	sc.ready[wi] = sc.ready[last]
	sc.ready = sc.ready[:last]
}

// fillSample completes a sample whose L1 probe left the miss mask miss,
// and returns when its data is complete: hits pipeline under the base
// latency, and misses are filled from the L2 and DRAM in line order and
// queue on the SC's L1 fill ports.
func (sc *scState) fillSample(e *engineState, lines []uint32, miss uint64) int64 {
	if sc.fillFree == nil {
		sc.fillFree = make([]int64, e.cfg.L1FillPorts)
	}
	var l2Before cache.Stats
	if e.sampler != nil {
		l2Before = e.hier.L2.Stats()
	}
	issue := sc.clock + e.cfg.SampleOverhead
	ready := issue + e.cfg.Hierarchy.L1Tex.HitLatency
	if e.cfg.Hierarchy.NUCA {
		// Remote hits add interconnect latency without occupying a fill
		// port; local hits are covered by the base latency.
		for i, line := range lines {
			if miss>>i&1 == 0 {
				ready = max(ready, issue+e.hier.L1Latency(sc.id, line))
			}
		}
	}
	for m := miss; m != 0; m &= m - 1 {
		line := lines[bits.TrailingZeros64(m)]
		l := e.hier.L1Latency(sc.id, line) + e.hier.FillTexture(line)
		// Grab the earliest-free fill port.
		port := 0
		for p := 1; p < len(sc.fillFree); p++ {
			if sc.fillFree[p] < sc.fillFree[port] {
				port = p
			}
		}
		done := max(sc.fillFree[port], sc.clock) + l
		sc.fillFree[port] = done
		ready = max(ready, done)
	}
	if e.sampler != nil {
		e.sampler.bucketFill(sc.id, sc.clock, statsDelta(e.hier.L2.Stats(), l2Before))
	}
	e.events.L1TexAccesses += uint64(len(lines))
	e.events.TextureSamples++
	return ready
}

// prefetch issues all of warp w's texture fills at admission time, so
// the fills overlap the warp's compute segments (decoupled
// access/execute prefetching). Traffic and fill-port occupancy are
// identical to demand fetching; only the start times move earlier.
func (sc *scState) prefetch(e *engineState, w *warpState) {
	for s := int8(0); s < w.samples; s++ {
		lines := w.tile.cov.sample(w.firstSpan + int32(s))
		w.fills[s] = sc.fillSample(e, lines, e.hier.ProbeTexture(sc.id, lines))
	}
	w.prefetched = true
}

// engineState is the shared execution context the SCs run against.
type engineState struct {
	cfg    Config
	hier   *cache.Hierarchy
	events EventCounts
	// retire is invoked at each quad completion (blending bookkeeping).
	retire func(sc *scState, tw *tileWork, at int64)
	// sampler, when non-nil, captures the Config.SampleEvery interval
	// time series; nil (the default) keeps the hot path at one pointer
	// comparison per step.
	sampler *intervalSampler

	// runAhead lets the stepping kernel run the front SC past the
	// runner-up (see turn), and limit is the runner-up's key while it
	// does. A runner-up key is never 0, since the front SC's key is
	// smaller, so the zero value keeps every step whole.
	runAhead bool
	limit    int64
}

// holds reports whether sc's current step, which needs shared state,
// must hold that part: the kernel let the SC run ahead and the step
// started past the runner-up's key.
func (e *engineState) holds(sc *scState) bool {
	return e.limit != 0 && sc.key() > e.limit
}
