package texture

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refFootprint is the footprint oracle: every texel of every probe goes
// through TexelAddr (clamped level, % wrap, Morton block) and a linear
// dedup keeps the first occurrence of each line, exactly the per-texel
// definition AppendFootprint's level table and block compares replace.
func refFootprint(t *Texture, f Filter, u, v, lod float64) []uint32 {
	var out []uint32
	bilinear := func(l int, u, v float64) {
		w, h := t.LevelDims(l)
		x0 := int(math.Floor(u*float64(w) - 0.5))
		y0 := int(math.Floor(v*float64(h) - 0.5))
		for dy := 0; dy <= 1; dy++ {
			for dx := 0; dx <= 1; dx++ {
				line := uint32(t.TexelAddr(l, x0+dx, y0+dy) / LineBytes)
				if !slices.Contains(out, line) {
					out = append(out, line)
				}
			}
		}
	}
	switch f {
	case Bilinear:
		bilinear(int(math.Round(lod)), u, v)
	case Trilinear:
		base := int(math.Floor(lod))
		bilinear(base, u, v)
		if lod-math.Floor(lod) > 0 && base+1 < t.Levels {
			bilinear(base+1, u, v)
		}
	case Aniso2x:
		base := int(math.Floor(lod)) - 1
		if base < 0 {
			base = 0
		}
		w, _ := t.LevelDims(base)
		du := 1.0 / float64(w)
		bilinear(base, u-du, v)
		bilinear(base, u+du, v)
	}
	return out
}

// checkFootprint compares AppendFootprint with the oracle for one sample,
// appending behind a non-empty prefix that must survive untouched.
func checkFootprint(t *testing.T, tex *Texture, f Filter, u, v, lod float64) {
	t.Helper()
	prefix := []uint32{7, 9}
	got := tex.AppendFootprint(prefix, f, u, v, lod)
	want := refFootprint(tex, f, u, v, lod)
	if !slices.Equal(got[:2], []uint32{7, 9}) || !slices.Equal(got[2:], want) {
		t.Fatalf("%dx%d@%#x %v (u %v, v %v, lod %v): got %v, want %v",
			tex.Width, tex.Height, tex.Base, f, u, v, lod, got[2:], want)
	}
	if n := len(want); n == 0 || n > MaxFootprintLines {
		t.Fatalf("%v footprint has %d lines", f, n)
	}
}

// footprintTextures are every Table I texture side (512 down to 32, each
// with its mips down to 1x1), non-square and degenerate shapes, on a zero
// and a non-zero base.
func footprintTextures() []*Texture {
	var out []*Texture
	for _, base := range []uint64{0, 0x1234_5640} {
		for _, side := range []int{512, 256, 128, 64, 32} {
			out = append(out, New(0, base, side, side))
		}
		for _, wh := range [][2]int{{64, 16}, {16, 64}, {512, 32}, {8, 1}, {1, 8}, {4, 4}, {2, 1}, {1, 1}} {
			out = append(out, New(0, base, wh[0], wh[1]))
		}
	}
	return out
}

// TestFootprintMatchesTexelAddrOracle drives random samples — negative
// and out-of-range coordinates, LODs from below 0 to past the last level,
// block-edge positions and integral LODs — through all three filters.
func TestFootprintMatchesTexelAddrOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tex := range footprintTextures() {
		for _, f := range []Filter{Bilinear, Trilinear, Aniso2x} {
			for i := 0; i < 3000; i++ {
				u := rng.Float64()*7 - 3
				v := rng.Float64()*7 - 3
				lod := rng.Float64()*float64(tex.Levels+4) - 2
				switch i % 4 {
				case 1: // on a texel edge of the level's grid
					w, h := tex.LevelDims(int(lod))
					u = math.Floor(u*float64(w)) / float64(w)
					v = math.Floor(v*float64(h)) / float64(h)
				case 2:
					lod = math.Floor(lod)
				case 3:
					lod = math.Round(lod) + 0.5
				}
				checkFootprint(t, tex, f, u, v, lod)
			}
		}
	}
}

// FuzzFootprintLines checks AppendFootprint against the oracle on fuzzed
// texture shapes, filters and sample positions.
func FuzzFootprintLines(f *testing.F) {
	f.Add(uint8(9), uint8(9), uint8(0), 0.5, 0.5, 0.0)
	f.Add(uint8(5), uint8(5), uint8(1), -0.25, 1.75, 3.5)
	f.Add(uint8(6), uint8(4), uint8(2), 0.0, 0.0, 9.0)
	f.Add(uint8(0), uint8(3), uint8(1), -1.0, 2.0, -0.5)
	f.Fuzz(func(t *testing.T, wExp, hExp, filter uint8, u, v, lod float64) {
		for _, x := range []float64{u, v} {
			if math.IsNaN(x) || math.Abs(x) > 1e6 {
				t.Skip()
			}
		}
		if math.IsNaN(lod) || math.Abs(lod) > 64 {
			t.Skip()
		}
		tex := New(0, 0x40_0000, 1<<(wExp%10), 1<<(hExp%10))
		checkFootprint(t, tex, Filter(filter%3), u, v, lod)
	})
}
