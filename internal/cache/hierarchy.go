package cache

import (
	"fmt"
	"unsafe"

	"dtexl/internal/dram"
)

// TextureLineBytes is the line size of the texture layout
// (texture.LineBytes), whose line numbers TextureSample takes: the L1
// texture caches and the L2 must use it.
const TextureLineBytes = 64

// HierarchyConfig mirrors the cache section of Table II.
type HierarchyConfig struct {
	NumSC  int    // number of shader cores == number of L1 texture caches
	L1Tex  Config // per-SC private texture cache
	Vertex Config // L1 vertex cache (geometry pipeline)
	Tile   Config // tile cache (parameter buffer / framebuffer traffic)
	L2     Config // shared L2
	DRAM   dram.Config

	// NUCA turns the private L1 texture caches into one shared,
	// address-interleaved organization (static NUCA, in the spirit of
	// the DTM-NUCA alternative the paper cites [6]): each line lives in
	// exactly one bank, eliminating replication by construction, but an
	// SC pays NUCARemoteLatency extra cycles to reach another SC's bank.
	NUCA bool
	// NUCARemoteLatency is the interconnect cost of a remote-bank L1
	// access (hit or fill return) under NUCA.
	NUCARemoteLatency int64
}

// DefaultHierarchyConfig returns Table II's memory configuration: 4 private
// 16 KiB 4-way L1 texture caches, an 8 KiB 4-way vertex cache, a 64 KiB
// 4-way tile cache and a shared 1 MiB 8-way L2, all with 64-byte lines.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		NumSC:             4,
		L1Tex:             Config{Name: "l1tex", SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, HitLatency: 1},
		Vertex:            Config{Name: "vertex", SizeBytes: 8 << 10, LineBytes: 64, Ways: 4, HitLatency: 1},
		Tile:              Config{Name: "tile", SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, HitLatency: 1},
		L2:                Config{Name: "l2", SizeBytes: 1 << 20, LineBytes: 64, Ways: 8, HitLatency: 12},
		DRAM:              dram.DefaultConfig(),
		NUCARemoteLatency: 4,
	}
}

// Hierarchy wires the private L1 texture caches, the vertex and tile
// caches, the shared L2 and DRAM together (Fig. 5). All property counters
// needed by the evaluation (notably total L2 accesses, the paper's
// texture-locality metric) are exposed through the individual caches.
type Hierarchy struct {
	cfg    HierarchyConfig
	L1Tex  []*Cache
	Vertex *Cache
	Tile   *Cache
	L2     *Cache
	DRAM   *dram.Model
}

// NewHierarchy builds the hierarchy from cfg. Panics on invalid
// configuration (static configuration errors are programming errors).
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.NumSC <= 0 {
		panic(fmt.Sprintf("cache: invalid SC count %d", cfg.NumSC))
	}
	if cfg.L1Tex.LineBytes != TextureLineBytes || cfg.L2.LineBytes != TextureLineBytes {
		panic(fmt.Sprintf("cache: texture path needs %d-byte L1 texture and L2 lines, got %d and %d",
			TextureLineBytes, cfg.L1Tex.LineBytes, cfg.L2.LineBytes))
	}
	h := &Hierarchy{
		cfg:    cfg,
		L1Tex:  make([]*Cache, cfg.NumSC),
		Vertex: New(cfg.Vertex),
		Tile:   New(cfg.Tile),
		L2:     New(cfg.L2),
		DRAM:   dram.New(cfg.DRAM),
	}
	for i := range h.L1Tex {
		c := cfg.L1Tex
		c.Name = fmt.Sprintf("l1tex%d", i)
		h.L1Tex[i] = New(c)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// TextureSample performs the texture reads of one sample issued by
// shader core sc. lines are 64-byte line numbers (address >> 6, the
// texture layout's line); lat[i] receives line i's latency as seen by the
// SC, and bit i of the result is set when line i missed in the L1 level
// (and therefore occupies an L1 fill port in the shader core's timing
// model). The lines are probed in order, exactly as one access each
// would be. Under NUCA each lookup goes to the line's home bank, with the
// remote-hop latency added when that bank belongs to another SC; remote
// hits are pipelined interconnect traffic, not fills. len(lat) must be
// at least len(lines), and len(lines) at most 64.
func (h *Hierarchy) TextureSample(sc int, lines []uint32, lat []int64) (missMask uint64) {
	lat = lat[:len(lines)]
	hit := h.cfg.L1Tex.HitLatency
	if !h.cfg.NUCA {
		l1 := h.L1Tex[sc]
		for i, line := range lines {
			if l1.hitMRU(uint64(line)) || l1.AccessLine(uint64(line)) {
				lat[i] = hit
				continue
			}
			missMask |= 1 << i
			lat[i] = hit + h.textureFill(line)
		}
		return missMask
	}
	n := uint32(h.cfg.NumSC)
	for i, line := range lines {
		bank := int(line % n)
		l := hit
		if bank != sc {
			l += h.cfg.NUCARemoteLatency
		}
		if b := h.L1Tex[bank]; b.hitMRU(uint64(line)) || b.AccessLine(uint64(line)) {
			lat[i] = l
			continue
		}
		missMask |= 1 << i
		lat[i] = l + h.textureFill(line)
	}
	return missMask
}

// textureFill serves an L1 texture miss on line from the L2 and, on an
// L2 miss, DRAM, returning the latency beyond the L1 lookup.
func (h *Hierarchy) textureFill(line uint32) int64 {
	if h.L2.AccessLine(uint64(line)) {
		return h.cfg.L2.HitLatency
	}
	return h.cfg.L2.HitLatency + h.DRAM.Access(uint64(line)*TextureLineBytes)
}

// VertexAccess performs a vertex fetch through the vertex cache.
func (h *Hierarchy) VertexAccess(addr uint64) int64 {
	lat := h.cfg.Vertex.HitLatency
	if h.Vertex.Access(addr) {
		return lat
	}
	lat += h.cfg.L2.HitLatency
	if h.L2.Access(addr) {
		return lat
	}
	return lat + h.DRAM.Access(addr)
}

// TileAccess performs parameter-buffer or framebuffer traffic through the
// tile cache.
func (h *Hierarchy) TileAccess(addr uint64) int64 {
	lat := h.cfg.Tile.HitLatency
	if h.Tile.Access(addr) {
		return lat
	}
	lat += h.cfg.L2.HitLatency
	if h.L2.Access(addr) {
		return lat
	}
	return lat + h.DRAM.Access(addr)
}

// L2Accesses returns the total number of L2 accesses so far — the paper's
// headline texture-locality metric (Figs. 2, 11, 16).
func (h *Hierarchy) L2Accesses() uint64 { return h.L2.Stats().Accesses }

// L1TexStats returns aggregate stats over all private L1 texture caches.
func (h *Hierarchy) L1TexStats() Stats {
	var agg Stats
	for _, c := range h.L1Tex {
		s := c.Stats()
		agg.Accesses += s.Accesses
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Evictions += s.Evictions
	}
	return agg
}

// FrontState is a deep snapshot of the hierarchy levels touched by the
// policy-independent front half of a frame (geometry fetch + parameter
// buffer binning): the vertex cache, the tile cache, the shared L2 and
// DRAM. The private L1 texture caches are deliberately absent — the
// geometry and tiling engines never access them, so after the front half
// they are still in their reset state and need no snapshotting.
//
// A FrontState is immutable once captured and may be restored into any
// number of hierarchies concurrently.
type FrontState struct {
	vertex *Cache
	tile   *Cache
	l2     *Cache
	dram   *dram.Model
}

// SaveFront captures a FrontState from h. The snapshot includes cache
// contents, LRU ordering, and all counters, so a restore reproduces the
// exact machine state — cumulative statistics included.
func (h *Hierarchy) SaveFront() *FrontState {
	return &FrontState{
		vertex: h.Vertex.Clone(),
		tile:   h.Tile.Clone(),
		l2:     h.L2.Clone(),
		dram:   h.DRAM.Clone(),
	}
}

// SizeBytes is the memory the snapshot retains: its four levels' way
// arrays and the DRAM open-row tables.
func (s *FrontState) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*s)) + s.vertex.SizeBytes() + s.tile.SizeBytes() + s.l2.SizeBytes() + s.dram.SizeBytes()
}

// RestoreFront deep-copies s into h's vertex, tile, L2 and DRAM levels,
// leaving the L1 texture caches untouched. It returns an error when h was
// built with different front-end geometry than the hierarchy s was saved
// from, since the snapshot would then be meaningless. The copy is
// in-place into the storage NewHierarchy already allocated — restores run
// once per memoized simulation, and cloning the L2 there used to be a
// leading allocation site.
func (h *Hierarchy) RestoreFront(s *FrontState) error {
	if h.cfg.Vertex != s.vertex.cfg || h.cfg.Tile != s.tile.cfg ||
		h.cfg.L2 != s.l2.cfg || h.cfg.DRAM != s.dram.Config() {
		return fmt.Errorf("cache: RestoreFront config mismatch (snapshot %v/%v/%v, hierarchy %v/%v/%v)",
			s.vertex.cfg, s.tile.cfg, s.l2.cfg, h.cfg.Vertex, h.cfg.Tile, h.cfg.L2)
	}
	if err := h.Vertex.CopyFrom(s.vertex); err != nil {
		return err
	}
	if err := h.Tile.CopyFrom(s.tile); err != nil {
		return err
	}
	if err := h.L2.CopyFrom(s.l2); err != nil {
		return err
	}
	h.DRAM.CopyFrom(s.dram)
	return nil
}

// Reset clears all caches, DRAM state and counters.
func (h *Hierarchy) Reset() {
	for _, c := range h.L1Tex {
		c.Reset()
	}
	h.Vertex.Reset()
	h.Tile.Reset()
	h.L2.Reset()
	h.DRAM.Reset()
}
