// Package cache models the GPU's on-chip cache hierarchy: set-associative
// LRU caches with 64-byte lines (Table II), plus the composition of
// private per-SC L1 texture caches backed by a shared L2 backed by DRAM.
//
// The caches are purely functional state machines over addresses: they
// track contents and counts. Timing (hit/miss latencies) is carried in
// each cache's configuration and composed by Hierarchy.
package cache

import (
	"fmt"
	"unsafe"
)

// Config describes one cache.
type Config struct {
	Name       string
	SizeBytes  int   // total capacity
	LineBytes  int   // line (block) size; Table II uses 64
	Ways       int   // associativity
	HitLatency int64 // cycles for a hit in this cache
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache %q: non-positive geometry %+v", c.Name, c)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache %q: size %d not divisible by ways*line (%d*%d)",
			c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Stats holds access counters for one cache.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Add accumulates o into s. Every field is a commutative sum, so blocks
// fold in any order (TestStatsCommutative); the interval sampler sums
// per-SC and per-interval traffic with it.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
}

// HitRate returns hits/accesses (0 when no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// A way packs a resident line's tag and valid bit into one word:
// tag<<1 | 1 when valid, 0 when invalid. Tags are at most
// addr >> (lineShift + setBits) < 2^58 for any realistic geometry, so
// the shift cannot overflow, and no valid tag encodes to 0. One word
// per way keeps a whole 4-way set in 32 bytes — half a cache line — and
// turns the lookup into a single integer compare per way.
type way = uint64

// Cache is a set-associative cache with true-LRU replacement. Each set's
// ways are kept in recency order (MRU at index 0), so a hit on the MRU
// way — the common case under texture locality — is a pure read, the LRU
// victim is always the tail way, and no per-way timestamp is needed.
// Move-to-front recency lists and use-time timestamps implement the same
// replacement policy; only the representation differs. The ways of all
// sets live in one flat, set-major array so lookups are a single
// bounds-checked slice plus index arithmetic, and snapshot/restore is one
// memmove.
type Cache struct {
	cfg       Config
	ways      []way // numSets * cfg.Ways entries, set-major, MRU-first
	nways     int
	setMask   uint64
	lineShift uint
	// tagShift is the width of the set-index field (popcount of setMask),
	// precomputed at New time: Access and Contains are the simulator's
	// hottest functions and must not rederive it per call.
	tagShift uint
	stats    Stats
}

// New builds a cache from cfg. It panics on invalid configuration, which
// is a programming error (configurations are static).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		ways:      make([]way, numSets*cfg.Ways),
		nways:     cfg.Ways,
		setMask:   uint64(numSets - 1),
		lineShift: shift,
		tagShift:  uint64OfBits(uint64(numSets - 1)),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the cache's counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access looks up the line containing addr, allocating it on a miss
// (allocate-on-miss, true LRU). It returns whether the access hit.
func (c *Cache) Access(addr uint64) bool { return c.AccessLine(addr >> c.lineShift) }

// AccessLine is Access for a line number (addr >> log2(LineBytes)): the
// texture path keeps its footprints as line numbers and probes here
// without re-deriving them from byte addresses.
//
// Invariant: within a set, valid ways form a prefix in recency order.
// Fills insert at the front, so invalid ways can only sink toward the
// tail and the LRU victim is always the last way.
func (c *Cache) AccessLine(line uint64) bool {
	c.stats.Accesses++
	base := int(line&c.setMask) * c.nways
	set := c.ways[base : base+c.nways : base+c.nways]
	want := line>>c.tagShift<<1 | 1
	if set[0] == want {
		c.stats.Hits++
		return true
	}
	for i := 1; i < len(set); i++ {
		if set[i] == want {
			// Shift by hand: the spans are a few words, below memmove's
			// break-even.
			for j := i; j > 0; j-- {
				set[j] = set[j-1]
			}
			set[0] = want
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	last := len(set) - 1
	if set[last] != 0 {
		c.stats.Evictions++
	}
	for j := last; j > 0; j-- {
		set[j] = set[j-1]
	}
	set[0] = want
	return false
}

// hitMRU counts a hit and returns true when line is its set's MRU way —
// the common case under texture locality, checked inline by the texture
// path (AccessLine itself is too large to inline) — and otherwise
// leaves the cache untouched for AccessLine.
func (c *Cache) hitMRU(line uint64) bool {
	if c.ways[int(line&c.setMask)*c.nways] != line>>c.tagShift<<1|1 {
		return false
	}
	c.stats.Accesses++
	c.stats.Hits++
	return true
}

// Contains reports whether the line holding addr is resident, without
// touching LRU state or counters.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.nways
	set := c.ways[base : base+c.nways]
	want := line>>c.tagShift<<1 | 1
	for i := range set {
		if set[i] == want {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the cache: contents, LRU state and
// counters of the copy evolve independently of the original afterwards.
// The struct copy carries every derived field (tagShift included); only
// the way array needs duplicating.
func (c *Cache) Clone() *Cache {
	cp := *c
	cp.ways = make([]way, len(c.ways))
	copy(cp.ways, c.ways)
	return &cp
}

// SizeBytes is the memory the cache retains: its struct and its way
// array.
func (c *Cache) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*c)) + int64(cap(c.ways))*int64(unsafe.Sizeof(way(0)))
}

// CopyFrom overwrites c's contents, LRU state and counters with src's
// without allocating: the restore path of a memoized front-half snapshot
// runs once per simulation, and cloning a 1 MiB L2 there dominated the
// executor's allocation profile. Both caches must share a configuration.
func (c *Cache) CopyFrom(src *Cache) error {
	if c.cfg != src.cfg {
		return fmt.Errorf("cache: CopyFrom config mismatch (%+v vs %+v)", c.cfg, src.cfg)
	}
	copy(c.ways, src.ways)
	c.stats = src.stats
	return nil
}

// Reset invalidates all contents and zeroes the counters.
func (c *Cache) Reset() {
	for i := range c.ways {
		c.ways[i] = 0
	}
	c.stats = Stats{}
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// uint64OfBits returns the number of set bits in a (2^k - 1) mask, i.e.
// the index width of the set field. Called once per New; the result is
// cached in Cache.tagShift.
func uint64OfBits(mask uint64) uint {
	n := uint(0)
	for mask != 0 {
		n++
		mask >>= 1
	}
	return n
}
