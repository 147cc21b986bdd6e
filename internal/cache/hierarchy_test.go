package cache

import (
	"math/rand"
	"slices"
	"testing"
)

func testHierarchy() *Hierarchy {
	cfg := DefaultHierarchyConfig()
	return NewHierarchy(cfg)
}

// probe reads the texture line holding addr from shader core sc as a
// one-line sample, returning its latency and whether it missed in L1.
func probe(h *Hierarchy, sc int, addr uint64) (lat int64, miss bool) {
	var l [1]int64
	m := h.TextureSample(sc, []uint32{uint32(addr / TextureLineBytes)}, l[:])
	return l[0], m != 0
}

// texLat is probe's latency alone.
func texLat(h *Hierarchy, sc int, addr uint64) int64 {
	lat, _ := probe(h, sc, addr)
	return lat
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
	if lat := texLat(h, 0, 0x10000); lat != 113 {
		t.Errorf("cold latency = %d, want 113", lat)
	}
	// Immediately after: L1 hit = 1.
	if lat := texLat(h, 0, 0x10000); lat != 1 {
		t.Errorf("L1 hit latency = %d, want 1", lat)
	}
	// Same line from another SC: its L1 misses but L2 now hits = 1 + 12.
	if lat := texLat(h, 1, 0x10000); lat != 13 {
		t.Errorf("L2 hit latency = %d, want 13", lat)
	}
	// One sample of three lines: an L1 hit, a cold miss and a second
	// cold miss to the same DRAM row; latencies land per line and the
	// mask marks the two misses.
	var lat [3]int64
	mask := h.TextureSample(0, []uint32{0x10000 / 64, 0x40000 / 64, 0x40040 / 64}, lat[:])
	if mask != 0b110 || lat != [3]int64{1, 113, 63} {
		t.Errorf("sample: mask %#b, latencies %v; want 0b110, [1 113 63]", mask, lat)
	}
}

func TestReplicationShowsUpAsL2Accesses(t *testing.T) {
	// The core phenomenon of the paper: the same lines touched from all
	// four SCs produce 4x the L2 accesses of single-SC access.
	lines := 128
	h := testHierarchy()
	for i := 0; i < lines; i++ {
		texLat(h, 0, uint64(i*64))
	}
	soloL2 := h.L2Accesses()

	h2 := testHierarchy()
	for sc := 0; sc < 4; sc++ {
		for i := 0; i < lines; i++ {
			texLat(h2, sc, uint64(i*64))
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
	texLat(h, 0, 0)
	texLat(h, 1, 0)
	texLat(h, 0, 0)
	agg := h.L1TexStats()
	if agg.Accesses != 3 || agg.Misses != 2 || agg.Hits != 1 {
		t.Errorf("aggregate = %+v", agg)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := testHierarchy()
	texLat(h, 0, 0)
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
	if lat := texLat(h, 0, 0); lat != 113 {
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
			texLat(hb, 0, uint64(i*64))
		}
	}
	bound := hb.L2Accesses()

	h4 := testHierarchy()
	for sc := 0; sc < 4; sc++ {
		for i := 0; i < lines; i++ {
			texLat(h4, sc, uint64(i*64))
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
	lat, miss := probe(h, 0, 0)
	if !miss {
		t.Error("cold access hit")
	}
	// A second access from SC 0: local hit at base latency.
	lat, miss = probe(h, 0, 0)
	if miss || lat != cfg.L1Tex.HitLatency {
		t.Errorf("local NUCA hit: lat=%d miss=%v", lat, miss)
	}
	// From SC 1 the same line is a REMOTE HIT (no replication!): the data
	// is in bank 0, reached with the hop latency, and no L2 access
	// happens.
	l2Before := h.L2Accesses()
	lat, miss = probe(h, 1, 0)
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
			texLat(priv, sc, uint64(i*64))
			texLat(nuca, sc, uint64(i*64))
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
		texLat(h, 0, uint64(i*64))
	}
	for b := 0; b < 4; b++ {
		if got := h.L1Tex[b].Stats().Accesses; got != 4 {
			t.Errorf("bank %d accesses = %d, want 4", b, got)
		}
	}
}

// refTextureRead is the per-line reference for TextureSample: one
// byte-address Cache.Access per level and dram.Model.Access on an L2
// miss, with the NUCA home bank chosen per line.
func refTextureRead(h *Hierarchy, sc int, line uint32) (lat int64, miss bool) {
	addr := uint64(line) * TextureLineBytes
	bank := sc
	lat = h.cfg.L1Tex.HitLatency
	if h.cfg.NUCA {
		bank = int(line % uint32(h.cfg.NumSC))
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

// TestTextureSampleMatchesPerLineReference replays random sample streams
// — a hot region revisited by every SC, cold lines past the L2's reach,
// one to eight lines per sample with repeats — through TextureSample and
// through the per-line reference. Latencies, miss masks, every cache's
// contents and the L1, L2 and DRAM counters must agree.
func TestTextureSampleMatchesPerLineReference(t *testing.T) {
	for _, nuca := range []bool{false, true} {
		cfg := DefaultHierarchyConfig()
		cfg.NUCA = nuca
		got, ref := NewHierarchy(cfg), NewHierarchy(cfg)
		rng := rand.New(rand.NewSource(3))
		var lines []uint32
		var lat [8]int64
		for s := 0; s < 40000; s++ {
			sc := rng.Intn(cfg.NumSC)
			lines = lines[:0]
			center := uint32(rng.Intn(1 << 10))
			if rng.Intn(4) == 0 {
				center = uint32(rng.Intn(1 << 20))
			}
			for n := 1 + rng.Intn(8); n > 0; n-- {
				lines = append(lines, center+uint32(rng.Intn(6)))
			}
			mask := got.TextureSample(sc, lines, lat[:])
			for i, line := range lines {
				wantLat, wantMiss := refTextureRead(ref, sc, line)
				if lat[i] != wantLat || (mask>>i&1 == 1) != wantMiss {
					t.Fatalf("nuca=%v sample %d line %d (%#x): lat %d miss %v, reference %d %v",
						nuca, s, i, line, lat[i], mask>>i&1 == 1, wantLat, wantMiss)
				}
			}
			if mask>>len(lines) != 0 {
				t.Fatalf("nuca=%v sample %d: mask %#b has bits past %d lines", nuca, s, mask, len(lines))
			}
		}
		for i := range got.L1Tex {
			if got.L1Tex[i].Stats() != ref.L1Tex[i].Stats() || !slices.Equal(got.L1Tex[i].ways, ref.L1Tex[i].ways) {
				t.Errorf("nuca=%v: L1 %d diverged: %+v vs %+v", nuca, i, got.L1Tex[i].Stats(), ref.L1Tex[i].Stats())
			}
		}
		if got.L2.Stats() != ref.L2.Stats() || !slices.Equal(got.L2.ways, ref.L2.ways) {
			t.Errorf("nuca=%v: L2 diverged: %+v vs %+v", nuca, got.L2.Stats(), ref.L2.Stats())
		}
		if got.DRAM.Stats() != ref.DRAM.Stats() {
			t.Errorf("nuca=%v: DRAM diverged: %+v vs %+v", nuca, got.DRAM.Stats(), ref.DRAM.Stats())
		}
		if s := got.L2.Stats(); s.Misses == 0 || s.Evictions == 0 || got.L1TexStats().Evictions == 0 {
			t.Errorf("nuca=%v: stream too tame to test eviction: L2 %+v", nuca, s)
		}
	}
}

func TestNewHierarchyPanicsOnForeignLineSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for 128-byte L1 texture lines")
		}
	}()
	cfg := DefaultHierarchyConfig()
	cfg.L1Tex.LineBytes = 128
	NewHierarchy(cfg)
}
