package cache

import (
	"fmt"

	"dtexl/internal/dram"
)

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

// TextureAccess performs a texture read from shader core sc for the line
// containing addr and returns the total latency seen by the SC.
func (h *Hierarchy) TextureAccess(sc int, addr uint64) int64 {
	lat, _ := h.TextureAccessInfo(sc, addr)
	return lat
}

// TextureAccessInfo performs a texture read and additionally reports
// whether it missed in the L1 level (and therefore occupies an L1 fill
// port in the shader core's timing model). Under NUCA the lookup goes to
// the line's home bank, with the remote-hop latency added when that bank
// belongs to another SC; remote hits are pipelined interconnect traffic,
// not fills.
func (h *Hierarchy) TextureAccessInfo(sc int, addr uint64) (lat int64, miss bool) {
	bank := sc
	lat = h.cfg.L1Tex.HitLatency
	if h.cfg.NUCA {
		bank = int((addr >> 6) % uint64(h.cfg.NumSC))
		if bank != sc {
			lat += h.cfg.NUCARemoteLatency
		}
	}
	if h.L1Tex[bank].Access(addr) {
		return lat, false
	}
	lat += h.cfg.L2.HitLatency
	if h.L2.Access(addr) {
		return lat, true
	}
	return lat + h.DRAM.Access(addr), true
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
