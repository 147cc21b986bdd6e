package cache

import (
	"testing"
)

func testHierarchy() *Hierarchy {
	cfg := DefaultHierarchyConfig()
	return NewHierarchy(cfg)
}

func TestDefaultHierarchyMatchesTableII(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	if cfg.NumSC != 4 {
		t.Errorf("NumSC = %d", cfg.NumSC)
	}
	if cfg.L1Tex.SizeBytes != 16<<10 || cfg.L1Tex.Ways != 4 || cfg.L1Tex.LineBytes != 64 || cfg.L1Tex.HitLatency != 1 {
		t.Errorf("L1Tex = %+v", cfg.L1Tex)
	}
	if cfg.Vertex.SizeBytes != 8<<10 || cfg.Vertex.Ways != 4 {
		t.Errorf("Vertex = %+v", cfg.Vertex)
	}
	if cfg.Tile.SizeBytes != 64<<10 || cfg.Tile.Ways != 4 {
		t.Errorf("Tile = %+v", cfg.Tile)
	}
	if cfg.L2.SizeBytes != 1<<20 || cfg.L2.Ways != 8 || cfg.L2.HitLatency != 12 {
		t.Errorf("L2 = %+v", cfg.L2)
	}
	if cfg.DRAM.RowHitLat != 50 || cfg.DRAM.RowMissLat != 100 {
		t.Errorf("DRAM = %+v", cfg.DRAM)
	}
}

func TestTextureAccessLatencies(t *testing.T) {
	h := testHierarchy()
	// Cold access: L1 miss + L2 miss + DRAM (row miss) = 1 + 12 + 100.
	if lat := h.TextureAccess(0, 0x10000); lat != 113 {
		t.Errorf("cold latency = %d, want 113", lat)
	}
	// Immediately after: L1 hit = 1.
	if lat := h.TextureAccess(0, 0x10000); lat != 1 {
		t.Errorf("L1 hit latency = %d, want 1", lat)
	}
	// Same line from another SC: its L1 misses but L2 now hits = 1 + 12.
	if lat := h.TextureAccess(1, 0x10000); lat != 13 {
		t.Errorf("L2 hit latency = %d, want 13", lat)
	}
}

func TestReplicationShowsUpAsL2Accesses(t *testing.T) {
	// The core phenomenon of the paper: the same lines touched from all
	// four SCs produce 4x the L2 accesses of single-SC access.
	lines := 128
	h := testHierarchy()
	for i := 0; i < lines; i++ {
		h.TextureAccess(0, uint64(i*64))
	}
	soloL2 := h.L2Accesses()

	h2 := testHierarchy()
	for sc := 0; sc < 4; sc++ {
		for i := 0; i < lines; i++ {
			h2.TextureAccess(sc, uint64(i*64))
		}
	}
	replicatedL2 := h2.L2Accesses()
	if replicatedL2 != 4*soloL2 {
		t.Errorf("replicated L2 accesses = %d, want %d", replicatedL2, 4*soloL2)
	}
}

func TestVertexAndTileAccessesShareL2(t *testing.T) {
	h := testHierarchy()
	h.VertexAccess(0x4000)
	h.TileAccess(0x8000)
	if got := h.L2Accesses(); got != 2 {
		t.Errorf("L2 accesses = %d, want 2", got)
	}
	// Vertex hit does not reach L2.
	h.VertexAccess(0x4000)
	if got := h.L2Accesses(); got != 2 {
		t.Errorf("L2 accesses after vertex hit = %d, want 2", got)
	}
	if lat := h.TileAccess(0x8000); lat != 1 {
		t.Errorf("tile hit latency = %d", lat)
	}
}

func TestL1TexStatsAggregate(t *testing.T) {
	h := testHierarchy()
	h.TextureAccess(0, 0)
	h.TextureAccess(1, 0)
	h.TextureAccess(0, 0)
	agg := h.L1TexStats()
	if agg.Accesses != 3 || agg.Misses != 2 || agg.Hits != 1 {
		t.Errorf("aggregate = %+v", agg)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := testHierarchy()
	h.TextureAccess(0, 0)
	h.VertexAccess(64)
	h.TileAccess(128)
	h.Reset()
	if h.L2Accesses() != 0 || h.L1TexStats().Accesses != 0 {
		t.Error("counters survived Reset")
	}
	if h.DRAM.Stats().Accesses != 0 {
		t.Error("DRAM counters survived Reset")
	}
	// Contents gone: cold access pays full latency again.
	if lat := h.TextureAccess(0, 0); lat != 113 {
		t.Errorf("post-reset cold latency = %d", lat)
	}
}

func TestNewHierarchyPanicsOnBadSCCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero SCs")
		}
	}()
	cfg := DefaultHierarchyConfig()
	cfg.NumSC = 0
	NewHierarchy(cfg)
}

func TestUpperBoundConfigSingleBigL1(t *testing.T) {
	// The paper's upper bound: 1 SC with a 4x-sized L1. Verify the
	// hierarchy supports it and that it yields fewer L2 accesses than 4
	// SCs replicating the same working set.
	cfg := DefaultHierarchyConfig()
	cfg.NumSC = 1
	cfg.L1Tex.SizeBytes *= 4
	hb := NewHierarchy(cfg)
	lines := 256
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < lines; i++ {
			hb.TextureAccess(0, uint64(i*64))
		}
	}
	bound := hb.L2Accesses()

	h4 := testHierarchy()
	for sc := 0; sc < 4; sc++ {
		for i := 0; i < lines; i++ {
			h4.TextureAccess(sc, uint64(i*64))
		}
	}
	if bound >= h4.L2Accesses() {
		t.Errorf("upper bound (%d) not below replicated config (%d)", bound, h4.L2Accesses())
	}
}

func TestNUCABanking(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.NUCA = true
	h := NewHierarchy(cfg)
	// Line 0's home bank is 0: SC 0 accesses it without the hop.
	lat, miss := h.TextureAccessInfo(0, 0)
	if !miss {
		t.Error("cold access hit")
	}
	// A second access from SC 0: local hit at base latency.
	lat, miss = h.TextureAccessInfo(0, 0)
	if miss || lat != cfg.L1Tex.HitLatency {
		t.Errorf("local NUCA hit: lat=%d miss=%v", lat, miss)
	}
	// From SC 1 the same line is a REMOTE HIT (no replication!): the data
	// is in bank 0, reached with the hop latency, and no L2 access
	// happens.
	l2Before := h.L2Accesses()
	lat, miss = h.TextureAccessInfo(1, 0)
	if miss {
		t.Error("NUCA replicated: remote access missed")
	}
	if lat != cfg.L1Tex.HitLatency+cfg.NUCARemoteLatency {
		t.Errorf("remote hit latency = %d", lat)
	}
	if h.L2Accesses() != l2Before {
		t.Error("remote hit went to L2")
	}
}

func TestNUCAEliminatesReplicationTraffic(t *testing.T) {
	// The same working set touched from all four SCs: private L1s fetch
	// it four times from L2, NUCA exactly once.
	lines := 128
	priv := NewHierarchy(DefaultHierarchyConfig())
	cfgN := DefaultHierarchyConfig()
	cfgN.NUCA = true
	nuca := NewHierarchy(cfgN)
	for sc := 0; sc < 4; sc++ {
		for i := 0; i < lines; i++ {
			priv.TextureAccess(sc, uint64(i*64))
			nuca.TextureAccess(sc, uint64(i*64))
		}
	}
	if nuca.L2Accesses() != uint64(lines) {
		t.Errorf("NUCA L2 accesses = %d, want %d", nuca.L2Accesses(), lines)
	}
	if priv.L2Accesses() != uint64(4*lines) {
		t.Errorf("private L2 accesses = %d, want %d", priv.L2Accesses(), 4*lines)
	}
}

func TestNUCAHomeBanksPartitionLines(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.NUCA = true
	h := NewHierarchy(cfg)
	// Consecutive lines interleave across banks round-robin.
	for i := 0; i < 16; i++ {
		h.TextureAccess(0, uint64(i*64))
	}
	for b := 0; b < 4; b++ {
		if got := h.L1Tex[b].Stats().Accesses; got != 4 {
			t.Errorf("bank %d accesses = %d, want 4", b, got)
		}
	}
}
