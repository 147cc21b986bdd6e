package texture

import (
	"testing"
)

func TestLOD(t *testing.T) {
	// One texel per pixel -> LOD 0.
	if got := LOD(1.0/256, 0, 0, 1.0/256, 256, 256); got != 0 {
		t.Errorf("1:1 LOD = %v", got)
	}
	// Two texels per pixel -> LOD 1.
	if got := LOD(2.0/256, 0, 0, 2.0/256, 256, 256); got < 0.99 || got > 1.01 {
		t.Errorf("2:1 LOD = %v", got)
	}
	// Magnification clamps at 0.
	if got := LOD(0.25/256, 0, 0, 0.25/256, 256, 256); got != 0 {
		t.Errorf("magnified LOD = %v", got)
	}
	// Max-axis rule: anisotropic footprints take the larger axis.
	iso := LOD(1.0/256, 0, 0, 4.0/256, 256, 256)
	if iso < 1.99 || iso > 2.01 {
		t.Errorf("aniso LOD = %v, want 2", iso)
	}
}

// fp returns a fresh footprint of one sample.
func fp(tex *Texture, f Filter, u, v, lod float64) []uint32 {
	return tex.AppendFootprint(nil, f, u, v, lod)
}

func TestBilinearFootprintSize(t *testing.T) {
	tex := New(0, 0, 256, 256)
	// Sample in the middle of a block: all 4 texels share one line.
	lines := fp(tex, Bilinear, (2.0+0.5)/256, (2.0+0.5)/256, 0)
	if len(lines) != 1 {
		t.Errorf("block-interior bilinear footprint = %d lines, want 1", len(lines))
	}
	// Sample exactly on a block corner: touches 4 blocks.
	lines = fp(tex, Bilinear, 4.0/256, 4.0/256, 0)
	if len(lines) != 4 {
		t.Errorf("block-corner bilinear footprint = %d lines, want 4", len(lines))
	}
}

func TestTrilinearTouchesTwoLevels(t *testing.T) {
	tex := New(0, 0, 256, 256)
	u, v := 0.3, 0.7
	nBi := len(fp(tex, Bilinear, u, v, 1.5))
	nTri := len(fp(tex, Trilinear, u, v, 1.5))
	if nTri <= nBi {
		t.Errorf("trilinear lines (%d) not more than bilinear (%d)", nTri, nBi)
	}
	// Integral LOD with zero fraction: trilinear reads one level only.
	nTri0 := len(fp(tex, Trilinear, u, v, 2.0))
	nBi0 := len(fp(tex, Bilinear, u, v, 2.0))
	if nTri0 != nBi0 {
		t.Errorf("integral-LOD trilinear = %d, bilinear = %d", nTri0, nBi0)
	}
}

func TestAnisoTouchesAtLeastTrilinear(t *testing.T) {
	tex := New(0, 0, 256, 256)
	u, v := 0.41, 0.13
	nT := len(fp(tex, Trilinear, u, v, 2.0))
	nA := len(fp(tex, Aniso2x, u, v, 2.0))
	if nA < nT {
		t.Errorf("aniso lines (%d) fewer than trilinear (%d)", nA, nT)
	}
}

func TestFootprintDedupes(t *testing.T) {
	tex := New(0, 0, 64, 64)
	for _, f := range []Filter{Bilinear, Trilinear, Aniso2x} {
		for _, lod := range []float64{-0.5, 0, 0.5, 2.5, 9} {
			seen := make(map[uint32]bool)
			for _, l := range fp(tex, f, 0.5, 0.5, lod) {
				if seen[l] {
					t.Fatalf("%v lod %v: duplicate line %#x in footprint", f, lod, l)
				}
				seen[l] = true
			}
		}
	}
}

func TestAdjacentPixelsShareLines(t *testing.T) {
	// The core locality property: at ~1 texel/pixel, samples one pixel
	// apart mostly fall in the same 4x4 block -> same line.
	tex := New(0, 0, 256, 256)
	shared := 0
	total := 0
	for px := 0; px < 64; px++ {
		u0 := (float64(px) + 0.5) / 256
		u1 := (float64(px) + 1.5) / 256
		a := fp(tex, Bilinear, u0, 0.5, 0)
		b := fp(tex, Bilinear, u1, 0.5, 0)
		total++
	pair:
		for _, la := range a {
			for _, lb := range b {
				if la == lb {
					shared++
					break pair
				}
			}
		}
	}
	if shared*4 < total*3 { // at least 75% of adjacent pixel pairs share a line
		t.Errorf("adjacent pixels share lines in only %d/%d cases", shared, total)
	}
}

func TestDistantPixelsDoNotShareLines(t *testing.T) {
	tex := New(0, 0, 256, 256)
	a := fp(tex, Bilinear, 0.1, 0.1, 0)
	b := fp(tex, Bilinear, 0.9, 0.9, 0)
	for _, la := range a {
		for _, lb := range b {
			if la == lb {
				t.Fatalf("distant samples share line %#x", la)
			}
		}
	}
}

func TestFilterString(t *testing.T) {
	if Bilinear.String() != "bilinear" || Trilinear.String() != "trilinear" || Aniso2x.String() != "aniso2x" {
		t.Error("filter names wrong")
	}
	if Filter(9).String() != "texture.Filter(9)" {
		t.Errorf("unknown filter name = %q", Filter(9).String())
	}
}

func TestFootprintPanicsOnUnknownFilter(t *testing.T) {
	tex := New(0, 0, 16, 16)
	defer func() {
		if recover() == nil {
			t.Error("no panic on unknown filter")
		}
	}()
	fp(tex, Filter(42), 0.5, 0.5, 0)
}
