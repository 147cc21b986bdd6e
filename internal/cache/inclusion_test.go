package cache

import (
	"math/rand"
	"testing"
)

// LRU inclusion (Mattson et al., 1970): at a fixed set count, after any
// access stream an LRU cache with w+1 ways holds every line the w-way
// cache holds, so an access that hits with w ways also hits with w+1.
// The law says nothing about how the recency order is stored, so it
// checks the packed move-to-front sets, the MRU fast path and the
// texture sample path against an oracle independent of the engine.

func inclusionConfig(sets, ways int) Config {
	return Config{Name: "incl", SizeBytes: sets * ways * TextureLineBytes, LineBytes: TextureLineBytes, Ways: ways, HitLatency: 1}
}

// checkInclusion feeds one line stream to caches of w and w+1 ways
// through Cache.Access, Cache.AccessLine and Hierarchy.TextureSample
// (private L1s; sample k takes the next 1 + lines[i]%8 lines on SC
// k%NumSC) and fails on any access that hits with w ways and misses
// with w+1.
func checkInclusion(t *testing.T, sets, w int, lines []uint32) {
	t.Helper()
	small, big := New(inclusionConfig(sets, w)), New(inclusionConfig(sets, w+1))
	for i, l := range lines {
		if hs, hb := small.AccessLine(uint64(l)), big.AccessLine(uint64(l)); hs && !hb {
			t.Fatalf("AccessLine, %d sets: access %d (line %d) hit with %d ways, missed with %d", sets, i, l, w, w+1)
		}
	}
	small, big = New(inclusionConfig(sets, w)), New(inclusionConfig(sets, w+1))
	for i, l := range lines {
		addr := uint64(l)*TextureLineBytes + uint64(i%TextureLineBytes)
		if hs, hb := small.Access(addr), big.Access(addr); hs && !hb {
			t.Fatalf("Access, %d sets: access %d (addr %#x) hit with %d ways, missed with %d", sets, i, addr, w, w+1)
		}
	}
	hc := DefaultHierarchyConfig()
	hc.L2.SizeBytes = 64 << 10 // the L2 never changes what an L1 holds
	hc.L1Tex = inclusionConfig(sets, w)
	hs := NewHierarchy(hc)
	hc.L1Tex = inclusionConfig(sets, w+1)
	hb := NewHierarchy(hc)
	lat := make([]int64, 8)
	for i, k := 0, 0; i < len(lines); k++ {
		n := min(1+int(lines[i]%8), len(lines)-i)
		sample := lines[i : i+n]
		sc := k % hc.NumSC
		if ms, mb := hs.TextureSample(sc, sample, lat), hb.TextureSample(sc, sample, lat); mb&^ms != 0 {
			t.Fatalf("TextureSample, %d sets: sample %d on SC %d (lines %v) missed %b with %d ways, %b with %d",
				sets, k, sc, sample, ms, w, mb, w+1)
		}
		i += n
	}
}

// TestLRUInclusion checks the law for w = 1..16 at three set counts on
// streams that mix reuse of recent lines (hits at every stack depth)
// with fresh lines.
func TestLRUInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sets := range []int{1, 4, 16} {
		for w := 1; w <= 16; w++ {
			lines := make([]uint32, 4000)
			for i := range lines {
				if i > 0 && rng.Intn(2) == 0 {
					lines[i] = lines[max(0, i-1-rng.Intn(4*sets*w))]
				} else {
					lines[i] = uint32(rng.Intn(sets * 24))
				}
			}
			checkInclusion(t, sets, w, lines)
		}
	}
}

// FuzzLRUInclusion checks the law on arbitrary streams: data[0] picks
// the set count (1..16), data[1] the smaller associativity (1..16) and
// every further byte a line.
func FuzzLRUInclusion(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 2, 3, 0, 4, 1, 5, 0, 2, 6})
	f.Add([]byte{0, 0, 7, 7, 9, 7, 9, 11, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		lines := make([]uint32, len(data)-2)
		for i, b := range data[2:] {
			lines[i] = uint32(b)
		}
		checkInclusion(t, 1<<(data[0]%5), 1+int(data[1]%16), lines)
	})
}
