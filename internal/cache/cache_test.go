package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 64B lines = 512 B.
	return New(Config{Name: "t", SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 1})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "ok", SizeBytes: 16 << 10, LineBytes: 64, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero", SizeBytes: 0, LineBytes: 64, Ways: 4},
		{Name: "line", SizeBytes: 1024, LineBytes: 48, Ways: 4},
		{Name: "indivisible", SizeBytes: 1000, LineBytes: 64, Ways: 4},
		{Name: "sets", SizeBytes: 3 * 64 * 4, LineBytes: 64, Ways: 4},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted, want error", c.Name)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid config")
		}
	}()
	New(Config{SizeBytes: 7, LineBytes: 64, Ways: 1})
}

func TestColdMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	// Same line, different byte offset must also hit.
	if !c.Access(0x1030) {
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache() // 2 ways per set
	// Three distinct lines mapping to the same set (set stride = 4*64).
	a, b, d := uint64(0), uint64(4*64), uint64(8*64)
	c.Access(a) // miss, fill
	c.Access(b) // miss, fill
	c.Access(a) // hit; b becomes LRU
	c.Access(d) // miss, evicts b
	if !c.Contains(a) {
		t.Error("a evicted, but it was MRU")
	}
	if c.Contains(b) {
		t.Error("b still resident, but it was LRU")
	}
	if !c.Contains(d) {
		t.Error("d not resident after fill")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestWorkingSetWithinCapacityNeverMissesTwice(t *testing.T) {
	// Property: accessing W distinct lines that all fit (per set) and then
	// re-accessing them in the same order yields all hits.
	c := New(Config{Name: "t", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4, HitLatency: 1})
	lines := make([]uint64, 0, 64)
	for i := 0; i < 64; i++ { // 64 lines = 4KiB / 64B exactly fills it
		lines = append(lines, uint64(i*64))
	}
	for _, a := range lines {
		c.Access(a)
	}
	for _, a := range lines {
		if !c.Access(a) {
			t.Fatalf("line %#x missed on re-access within capacity", a)
		}
	}
}

func TestHitsNeverExceedAccesses(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := smallCache()
		for _, a := range addrs {
			c.Access(uint64(a))
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses && s.Hits <= s.Accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := smallCache()
	c.Access(0)
	before := c.Stats()
	c.Contains(0)
	c.Contains(12345)
	if c.Stats() != before {
		t.Error("Contains changed counters")
	}
	// Contains must not refresh LRU: make 0 LRU, probe it, then evict.
	c.Access(4 * 64)
	c.Access(8 * 64) // set now holds {4*64, 8*64}? no: 0 is LRU after these
	_ = c
}

func TestReset(t *testing.T) {
	c := smallCache()
	c.Access(0)
	c.Access(0)
	c.Reset()
	if c.Stats() != (Stats{}) {
		t.Error("stats survived Reset")
	}
	if c.Contains(0) {
		t.Error("contents survived Reset")
	}
}

func TestHitRate(t *testing.T) {
	s := Stats{Accesses: 10, Hits: 7, Misses: 3}
	if got := s.HitRate(); got != 0.7 {
		t.Errorf("HitRate = %v", got)
	}
	if got := (Stats{}).HitRate(); got != 0 {
		t.Errorf("empty HitRate = %v", got)
	}
}

// TestStatsCommutative pins that folding counter blocks with Stats.Add
// is commutative and associative, so the interval sampler's per-SC and
// per-interval sums do not depend on the order they are taken in.
func TestStatsCommutative(t *testing.T) {
	blocks := []Stats{
		{Accesses: 3, Hits: 2, Misses: 1, Evictions: 1},
		{Accesses: 10, Hits: 4, Misses: 6, Evictions: 5},
		{Accesses: 1},
		{Accesses: 7, Hits: 7},
		{Misses: 9, Evictions: 2, Accesses: 9},
	}
	var fwd Stats
	for _, b := range blocks {
		fwd.Add(b)
	}
	var rev Stats
	for i := len(blocks) - 1; i >= 0; i-- {
		rev.Add(blocks[i])
	}
	if fwd != rev {
		t.Errorf("Stats.Add not commutative: fwd %+v rev %+v", fwd, rev)
	}
	// Associativity: pre-fold a middle group, then fold the groups.
	var mid Stats
	mid.Add(blocks[1])
	mid.Add(blocks[2])
	mid.Add(blocks[3])
	var grouped Stats
	grouped.Add(blocks[0])
	grouped.Add(mid)
	grouped.Add(blocks[4])
	if fwd != grouped {
		t.Errorf("Stats.Add not associative: flat %+v grouped %+v", fwd, grouped)
	}
}

func TestDirectMappedBehavior(t *testing.T) {
	// 1-way cache: two lines in the same set always conflict.
	c := New(Config{Name: "dm", SizeBytes: 256, LineBytes: 64, Ways: 1, HitLatency: 1})
	a, b := uint64(0), uint64(256) // same set (4 sets, stride 256)
	c.Access(a)
	c.Access(b)
	if c.Contains(a) {
		t.Error("direct-mapped conflict did not evict")
	}
	if !c.Contains(b) {
		t.Error("newly filled line absent")
	}
}

func TestStreamLargerThanCacheThrashes(t *testing.T) {
	// A cyclic stream over 2x capacity with LRU must miss every time.
	c := New(Config{Name: "t", SizeBytes: 1 << 10, LineBytes: 64, Ways: 4, HitLatency: 1})
	numLines := 2 * (1 << 10) / 64
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < numLines; i++ {
			if c.Access(uint64(i * 64)) {
				t.Fatalf("pass %d line %d hit; LRU should thrash on cyclic overflow", pass, i)
			}
		}
	}
}

func TestRandomizedAgainstReferenceModel(t *testing.T) {
	// Differential test: compare against a simple map+timestamp reference
	// implementation of set-associative LRU.
	cfg := Config{Name: "ref", SizeBytes: 2 << 10, LineBytes: 64, Ways: 4, HitLatency: 1}
	c := New(cfg)
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)

	type refLine struct {
		line uint64
		t    int
	}
	ref := make([][]refLine, numSets)
	clock := 0
	refAccess := func(addr uint64) bool {
		line := addr / 64
		set := int(line % uint64(numSets))
		clock++
		for i := range ref[set] {
			if ref[set][i].line == line {
				ref[set][i].t = clock
				return true
			}
		}
		if len(ref[set]) < cfg.Ways {
			ref[set] = append(ref[set], refLine{line, clock})
			return false
		}
		victim := 0
		for i := range ref[set] {
			if ref[set][i].t < ref[set][victim].t {
				victim = i
			}
		}
		ref[set][victim] = refLine{line, clock}
		return false
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1 << 14))
		want := refAccess(addr)
		got := c.Access(addr)
		if got != want {
			t.Fatalf("access %d addr %#x: got hit=%v, reference says %v", i, addr, got, want)
		}
	}
}
