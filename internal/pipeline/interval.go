package pipeline

import (
	"dtexl/internal/cache"
)

// Interval time series: when Config.SampleEvery > 0, the executors
// record scheduler and memory-system state at periodic simulated-cycle
// boundaries B_k = k*SampleEvery. The semantics are *per shader core*
// and deterministic: each SC contributes its own state at its own first
// scheduling event on or after B_k, and the texture-fill L2 traffic is
// bucketed by the issuing SC's clock. Nothing in the series depends on
// the relative progress of different SCs at observation time: every
// sampler write is indexed by the recording SC. Sampling records only
// reads of existing state: enabling it never changes the simulated
// timing, traffic or image.
//
// The per-SC series are ring-buffered (maxIntervals boundaries), so a
// long frame cannot grow memory without bound; the retained window is
// the most recent one, which is where a stall under investigation
// usually lives.

// maxIntervals bounds Metrics.Intervals: the most recent maxIntervals
// boundaries are retained and Metrics.IntervalsDropped counts the
// trimmed remainder.
const maxIntervals = 4096

// seriesCap sizes the per-SC boundary rings: one extra slot beyond
// maxIntervals so the delta fields of the oldest retained interval
// still have their predecessor available.
const seriesCap = maxIntervals + 1

// Interval is one periodic record of the raster phase. Slices are
// indexed by SC id. Cycle restarts at each frame boundary (multi-frame
// aggregation concatenates frames).
type Interval struct {
	// Cycle is the boundary clock itself: k*SampleEvery for the k-th
	// interval of the frame.
	Cycle int64
	// Occupancy is resident warps per SC at the SC's first event on or
	// after the boundary (its final state if it finished earlier).
	Occupancy []int32
	// QueueDepth is un-admitted quads in each SC's current input stream
	// at the same per-SC observation point.
	QueueDepth []int32
	// BusyDelta is per-SC busy cycles accumulated since the previous
	// boundary (utilization = BusyDelta / SampleEvery).
	BusyDelta []int64
	// L1Tex is the traffic accumulated since the previous boundary,
	// aggregated over all SCs' own L1 texture caches, each observed at
	// its owner's boundary crossing.
	L1Tex cache.Stats
	// L2 is the *texture-fill* L2 traffic whose issuing SC clock falls
	// in (B_{k-1}, B_k] (executor-level tile/vertex L2 traffic is not
	// attributed to intervals; Metrics.L2 still counts everything).
	L2 cache.Stats
}

// scSeries is one SC's boundary-crossing record: a ring, dense in the
// boundary index k, of the SC's state at its crossing of each boundary.
// Slot (k-1)%seriesCap holds boundary k; entries are valid for
// k in (lastK-seriesCap, lastK]. Values are written by the SC's own
// steps only.
type scSeries struct {
	lastK int64
	occ   []int32
	qd    []int32
	busy  []int64       // cumulative busy cycles at the crossing
	l1    []cache.Stats // cumulative own-L1 traffic (since sampler creation)
}

// l2Buckets is one SC's texture-fill L2 traffic, bucketed by boundary
// index with the same ring layout as scSeries. Written only by the SC's
// own texture samples.
type l2Buckets struct {
	lastK int64
	d     []cache.Stats
}

// intervalSampler drives the periodic records. A nil sampler (the
// SampleEvery == 0 default) costs the executors one pointer comparison
// per scheduling step and nothing else. All mutable state is indexed by
// SC id and touched only by that SC's steps.
type intervalSampler struct {
	every int64
	scs   []*scState
	hier  *cache.Hierarchy

	// next[i] is SC i's next boundary clock; the step hook fires cross()
	// when the SC's clock reaches it.
	next []int64

	series []scSeries
	fills  []l2Buckets
	// l1Base is each SC's own-L1 stats at sampler creation (the
	// post-geometry state), so the series covers raster-phase traffic
	// only even when the hierarchy is reused across frames.
	l1Base []cache.Stats
}

func newIntervalSampler(every int64, scs []*scState, hier *cache.Hierarchy) *intervalSampler {
	n := len(scs)
	s := &intervalSampler{
		every:  every,
		scs:    scs,
		hier:   hier,
		next:   make([]int64, n),
		series: make([]scSeries, n),
		fills:  make([]l2Buckets, n),
		l1Base: make([]cache.Stats, n),
	}
	for i := range scs {
		s.next[i] = every
		se := &s.series[i]
		se.occ = make([]int32, seriesCap)
		se.qd = make([]int32, seriesCap)
		se.busy = make([]int64, seriesCap)
		se.l1 = make([]cache.Stats, seriesCap)
		s.fills[i].d = make([]cache.Stats, seriesCap)
		s.l1Base[i] = hier.L1Tex[i].Stats()
	}
	return s
}

// cross records SC sc's state at every boundary its clock has reached
// since its last crossing, and re-arms next[sc.id]. An event that jumps
// several boundaries records the same state for each (the delta fields
// then concentrate in the first of the group). Reads only the SC's own
// state and its own L1 texture cache; writes only the SC's own series.
func (s *intervalSampler) cross(sc *scState) {
	id := sc.id
	se := &s.series[id]
	kEnd := sc.clock / s.every
	occ := int32(len(sc.warps))
	var qd int32
	if sc.inTile != nil {
		qd = int32(len(sc.inTile.perSC[id]) - sc.inPos)
	}
	l1 := statsDelta(s.hier.L1Tex[id].Stats(), s.l1Base[id])
	k0 := se.lastK + 1
	if kEnd-k0+1 > seriesCap {
		// The jump skipped more boundaries than the ring holds; only the
		// retained window needs slots.
		k0 = kEnd - seriesCap + 1
	}
	for k := k0; k <= kEnd; k++ {
		j := int((k - 1) % seriesCap)
		se.occ[j], se.qd[j], se.busy[j], se.l1[j] = occ, qd, sc.busy, l1
	}
	se.lastK = kEnd
	s.next[id] = (kEnd + 1) * s.every
}

// bucketFill attributes one texture sample's L2 traffic delta to the
// interval containing the issuing clock: boundary k covers fills with
// clock in (B_{k-1}, B_k].
func (s *intervalSampler) bucketFill(id int, clock int64, d cache.Stats) {
	if d.Accesses == 0 {
		return
	}
	k := (clock + s.every - 1) / s.every
	if k < 1 {
		k = 1
	}
	b := &s.fills[id]
	if k > b.lastK {
		k0 := b.lastK + 1
		if k-k0+1 > seriesCap {
			k0 = k - seriesCap + 1
		}
		for kk := k0; kk <= k; kk++ {
			b.d[int((kk-1)%seriesCap)] = cache.Stats{}
		}
		b.lastK = k
	}
	b.d[int((k-1)%seriesCap)].Add(d)
}

// drain assembles the retained boundaries into chronological Intervals
// plus the trimmed count. For boundaries an SC never reached (it
// finished earlier), the SC contributes its final state, so late
// intervals show drained cores at zero occupancy and zero deltas.
// Nil-receiver safe (sampling disabled).
func (s *intervalSampler) drain() ([]Interval, int) {
	if s == nil {
		return nil, 0
	}
	var kMax int64
	for i := range s.series {
		if s.series[i].lastK > kMax {
			kMax = s.series[i].lastK
		}
	}
	if kMax == 0 {
		return nil, 0
	}
	start := int64(1)
	if kMax > maxIntervals {
		start = kMax - maxIntervals + 1
	}
	n := len(s.scs)
	finOcc := make([]int32, n)
	finQd := make([]int32, n)
	finBusy := make([]int64, n)
	finL1 := make([]cache.Stats, n)
	for i, sc := range s.scs {
		finOcc[i] = int32(len(sc.warps))
		if sc.inTile != nil {
			finQd[i] = int32(len(sc.inTile.perSC[sc.id]) - sc.inPos)
		}
		finBusy[i] = sc.busy
		finL1[i] = statsDelta(s.hier.L1Tex[i].Stats(), s.l1Base[i])
	}
	get := func(i int, k int64) (occ, qd int32, busy int64, l1 cache.Stats) {
		if k <= 0 {
			return 0, 0, 0, cache.Stats{}
		}
		se := &s.series[i]
		if k > se.lastK {
			return finOcc[i], finQd[i], finBusy[i], finL1[i]
		}
		j := int((k - 1) % seriesCap)
		return se.occ[j], se.qd[j], se.busy[j], se.l1[j]
	}
	out := make([]Interval, 0, kMax-start+1)
	for k := start; k <= kMax; k++ {
		iv := Interval{
			Cycle:      k * s.every,
			Occupancy:  make([]int32, n),
			QueueDepth: make([]int32, n),
			BusyDelta:  make([]int64, n),
		}
		for i := range s.scs {
			occ, qd, busy, l1 := get(i, k)
			_, _, pbusy, pl1 := get(i, k-1)
			iv.Occupancy[i] = occ
			iv.QueueDepth[i] = qd
			iv.BusyDelta[i] = busy - pbusy
			iv.L1Tex.Add(statsDelta(l1, pl1))
			b := &s.fills[i]
			if k <= b.lastK && k > b.lastK-seriesCap {
				iv.L2.Add(b.d[int((k-1)%seriesCap)])
			}
			if k == kMax {
				// Fills issued past the last crossed boundary (a partial
				// trailing interval) fold into the final row.
				for kk := kMax + 1; kk <= b.lastK; kk++ {
					iv.L2.Add(b.d[int((kk-1)%seriesCap)])
				}
			}
		}
		out = append(out, iv)
	}
	return out, int(start - 1)
}
