package texture

import (
	"testing"
	"testing/quick"
)

func TestNewMipChain(t *testing.T) {
	tex := New(0, 0, 256, 256)
	if tex.Levels != 9 { // 256..1
		t.Errorf("Levels = %d, want 9", tex.Levels)
	}
	w, h := tex.LevelDims(0)
	if w != 256 || h != 256 {
		t.Errorf("level 0 dims = %dx%d", w, h)
	}
	w, h = tex.LevelDims(8)
	if w != 1 || h != 1 {
		t.Errorf("last level dims = %dx%d", w, h)
	}
	// Clamping.
	w, h = tex.LevelDims(99)
	if w != 1 || h != 1 {
		t.Errorf("clamped level dims = %dx%d", w, h)
	}
	w, h = tex.LevelDims(-1)
	if w != 256 {
		t.Errorf("negative level dims = %dx%d", w, h)
	}
}

func TestNonSquareMipChain(t *testing.T) {
	tex := New(0, 0, 64, 16)
	// 64x16 -> 32x8 -> 16x4 -> 8x2 -> 4x1 -> 2x1 -> 1x1 = 7 levels.
	if tex.Levels != 7 {
		t.Errorf("Levels = %d, want 7", tex.Levels)
	}
	w, h := tex.LevelDims(4)
	if w != 4 || h != 1 {
		t.Errorf("level 4 dims = %dx%d, want 4x1", w, h)
	}
}

// lineAddr is the line-aligned address of texel (x, y) at level l.
func lineAddr(tex *Texture, l, x, y int) uint64 {
	return tex.TexelAddr(l, x, y) &^ (LineBytes - 1)
}

func TestNewPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for 100x100 texture")
		}
	}()
	New(0, 0, 100, 100)
}

// TestValidateAddressRange pins the line path's addressing rules: New
// panics on a misaligned base or a range reaching 2^38, Validate rejects
// sides whose level 0 alone reaches it, and the top of the range works.
func TestValidateAddressRange(t *testing.T) {
	size := New(0, 0, 64, 64).SizeBytes()
	for name, base := range map[string]uint64{
		"unaligned":       0x1000_0020,
		"range ends 2^38": 1<<MaxAddrBits - size,
		"base past 2^38":  1 << MaxAddrBits,
		"wraps uint64":    ^uint64(0) &^ (LineBytes - 1),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic for base %#x", name, base)
				}
			}()
			New(0, base, 64, 64)
		}()
	}
	for _, wh := range [][2]int{{1 << 18, 1}, {1, 1 << 18}, {1 << 40, 1 << 40}} {
		if err := Validate(0, wh[0], wh[1]); err == nil {
			t.Errorf("%dx%d texture accepted", wh[0], wh[1])
		}
	}
	if err := Validate(0, 1<<17, 1<<17); err != nil {
		t.Errorf("2^17 square rejected: %v", err)
	}
	// The last line-aligned base whose range ends below 2^38 is fine, and
	// its top line numbers still fit a uint32.
	tex := New(0, 1<<MaxAddrBits-size-LineBytes, 64, 64)
	checkFootprint(t, tex, Trilinear, 0.999, 0.999, 0.5)
}

func TestSizeBytesCoversAllLevels(t *testing.T) {
	tex := New(0, 0, 64, 64)
	// Level 0 alone is 64*64*4 = 16384 bytes; the chain must be larger.
	if tex.SizeBytes() <= 16384 {
		t.Errorf("SizeBytes = %d", tex.SizeBytes())
	}
	// All texel addresses of all levels must fall inside [Base, Base+Size).
	for l := 0; l < tex.Levels; l++ {
		w, h := tex.LevelDims(l)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				a := tex.TexelAddr(l, x, y)
				if a < tex.Base || a >= tex.Base+tex.SizeBytes() {
					t.Fatalf("texel (%d,%d) level %d address %#x outside texture", x, y, l, a)
				}
			}
		}
	}
}

func TestBlockLinearLayout(t *testing.T) {
	tex := New(0, 0, 64, 64)
	// All 16 texels of one 4x4 block share a cache line.
	base := lineAddr(tex, 0, 0, 0)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if lineAddr(tex, 0, x, y) != base {
				t.Fatalf("texel (%d,%d) not in block line", x, y)
			}
		}
	}
	// The next block over is a different line.
	if lineAddr(tex, 0, 4, 0) == base {
		t.Error("adjacent block shares the line")
	}
	// Texels within a line are distinct addresses.
	if tex.TexelAddr(0, 0, 0) == tex.TexelAddr(0, 1, 0) {
		t.Error("distinct texels share an address")
	}
}

func TestDistinctTexelsDistinctAddrs(t *testing.T) {
	tex := New(0, 0, 32, 32)
	seen := make(map[uint64]bool)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			a := tex.TexelAddr(0, x, y)
			if seen[a] {
				t.Fatalf("duplicate address %#x at (%d,%d)", a, x, y)
			}
			seen[a] = true
		}
	}
}

func TestMipLevelsDoNotOverlap(t *testing.T) {
	tex := New(0, 0, 64, 64)
	lv0 := tex.TexelAddr(0, 63, 63)
	lv1 := tex.TexelAddr(1, 0, 0)
	if lv1 <= lv0 && lineAddr(tex, 1, 0, 0) == lineAddr(tex, 0, 63, 63) {
		t.Error("mip levels share lines")
	}
	// Distinct levels must produce disjoint line sets.
	lines0 := make(map[uint64]bool)
	for y := 0; y < 64; y += 4 {
		for x := 0; x < 64; x += 4 {
			lines0[lineAddr(tex, 0, x, y)] = true
		}
	}
	for y := 0; y < 32; y += 4 {
		for x := 0; x < 32; x += 4 {
			if lines0[lineAddr(tex, 1, x, y)] {
				t.Fatal("level 1 line aliases a level 0 line")
			}
		}
	}
}

func TestWrapAddressing(t *testing.T) {
	tex := New(0, 0, 16, 16)
	if tex.TexelAddr(0, 16, 0) != tex.TexelAddr(0, 0, 0) {
		t.Error("x wrap broken")
	}
	if tex.TexelAddr(0, -1, 0) != tex.TexelAddr(0, 15, 0) {
		t.Error("negative x wrap broken")
	}
	if tex.TexelAddr(0, 0, 20) != tex.TexelAddr(0, 0, 4) {
		t.Error("y wrap broken")
	}
}

func TestWrapProperty(t *testing.T) {
	tex := New(0, 0, 32, 32)
	f := func(x, y int16) bool {
		a := tex.TexelAddr(0, int(x), int(y))
		b := tex.TexelAddr(0, int(x)+32, int(y)-32)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBaseAddressOffsetsEverything(t *testing.T) {
	t1 := New(0, 0, 16, 16)
	t2 := New(1, 1<<20, 16, 16)
	d := t2.TexelAddr(0, 3, 5) - t1.TexelAddr(0, 3, 5)
	if d != 1<<20 {
		t.Errorf("base offset delta = %d", d)
	}
}
