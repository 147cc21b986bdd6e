package texture

import (
	"fmt"
	"math"

	"dtexl/internal/tileorder"
)

// Filter selects the texture filtering mode. The paper notes (§II-B,
// citing Heckbert's survey) that adjacent quads re-access neighbouring
// texels more aggressively under trilinear and anisotropic filtering than
// under bilinear — richer footprints mean more sharing, hence more
// replication when neighbours are split across SCs.
type Filter int

const (
	// Bilinear samples the 2x2 texel neighbourhood at one mip level.
	Bilinear Filter = iota
	// Trilinear samples 2x2 neighbourhoods at the two mip levels
	// bracketing the LOD.
	Trilinear
	// Aniso2x takes two trilinear probes spread along the anisotropy
	// axis.
	Aniso2x
)

var filterNames = map[Filter]string{Bilinear: "bilinear", Trilinear: "trilinear", Aniso2x: "aniso2x"}

// String returns the lowercase filter name.
func (f Filter) String() string {
	if s, ok := filterNames[f]; ok {
		return s
	}
	return fmt.Sprintf("texture.Filter(%d)", int(f))
}

// LOD computes the mip level-of-detail from screen-space UV derivatives
// (in UV units per pixel) for a texture of the given dimensions, using
// the standard max-axis formula.
func LOD(dudx, dvdx, dudy, dvdy float64, texW, texH int) float64 {
	ddx := math.Hypot(dudx*float64(texW), dvdx*float64(texH))
	ddy := math.Hypot(dudy*float64(texW), dvdy*float64(texH))
	d := math.Max(ddx, ddy)
	if d <= 1 {
		return 0
	}
	return math.Log2(d)
}

// MaxFootprintLines bounds the lines one sample reads: two 2x2 probes
// of at most four lines each (Trilinear, Aniso2x).
const MaxFootprintLines = 8

// AppendFootprint appends to dst the distinct line numbers (byte address
// >> 6) read when sampling t at (u, v) (normalized coordinates) with the
// given LOD under filter f, in probe order, and returns the extended
// slice. Each probe reads its level's row of the level table once and
// wraps x0/x0+1 and y0/y0+1 together, so a 2x2 probe yields 1, 2 or 4
// lines by block equality without a search; only Aniso2x's second probe,
// on the same level as its first, is checked for repeats. Trilinear's two
// probes read distinct levels, whose lines are disjoint.
func (t *Texture) AppendFootprint(dst []uint32, f Filter, u, v, lod float64) []uint32 {
	switch f {
	case Bilinear:
		lines, n := t.lv[clampLevel(int(math.Round(lod)), t.Levels)].probe(u, v)
		return append(dst, lines[:n]...)
	case Trilinear:
		fl := math.Floor(lod)
		base := int(fl)
		lines, n := t.lv[clampLevel(base, t.Levels)].probe(u, v)
		dst = append(dst, lines[:n]...)
		// A negative base clamps both probes to level 0: the second would
		// only repeat the first.
		if lod > fl && base >= 0 && base+1 < t.Levels {
			lines, n = t.lv[base+1].probe(u, v)
			dst = append(dst, lines[:n]...)
		}
		return dst
	case Aniso2x:
		// Two probes offset along u (the synthetic scenes' dominant
		// anisotropy axis), one level sharper than the LOD.
		m := &t.lv[clampLevel(int(math.Floor(lod))-1, t.Levels)]
		du := 1.0 / float64(m.w)
		first, n0 := m.probe(u-du, v)
		dst = append(dst, first[:n0]...)
		lines, n := m.probe(u+du, v)
	next:
		for _, l := range lines[:n] {
			for _, p := range first[:n0] {
				if p == l {
					continue next
				}
			}
			dst = append(dst, l)
		}
		return dst
	}
	panic(fmt.Sprintf("texture: unknown filter %d", int(f)))
}

// probe returns the distinct lines of the 2x2 texel neighbourhood around
// (u, v) at this level, in the order (x0,y0), (x0+1,y0), (x0,y0+1),
// (x0+1,y0+1) with repeats dropped. Two wrapped neighbours share a line
// exactly when they share a 4-texel block column (row), so the count
// follows from two compares.
func (m *mipLevel) probe(u, v float64) (lines [4]uint32, n int) {
	// Texel-space position of the sample; -0.5 centers texels per GL.
	x0 := int(math.Floor(u*float64(m.w) - 0.5))
	y0 := int(math.Floor(v*float64(m.h) - 0.5))
	bx0, bx1 := (x0&m.xMask)>>blockShift, ((x0+1)&m.xMask)>>blockShift
	by0, by1 := (y0&m.yMask)>>blockShift, ((y0+1)&m.yMask)>>blockShift
	lines[0] = m.line0 + uint32(tileorder.MortonEncode(bx0, by0))
	n = 1
	if bx1 != bx0 {
		lines[n] = m.line0 + uint32(tileorder.MortonEncode(bx1, by0))
		n++
	}
	if by1 != by0 {
		lines[n] = m.line0 + uint32(tileorder.MortonEncode(bx0, by1))
		n++
		if bx1 != bx0 {
			lines[n] = m.line0 + uint32(tileorder.MortonEncode(bx1, by1))
			n++
		}
	}
	return lines, n
}
