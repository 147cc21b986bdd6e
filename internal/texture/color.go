package texture

import (
	"math"

	"dtexl/internal/render"
)

// Texel colors are procedural: a pure function of (texture ID, level,
// texel), so no backing storage is needed and any access order yields the
// same image. The pattern mixes per-block noise with a smooth gradient so
// rendered frames are visually inspectable.

// TexelColor returns the color of texel (x, y) at mip level l
// (coordinates wrap, the level clamps — same addressing as TexelAddr).
func (t *Texture) TexelColor(l, x, y int) render.Color {
	l = clampLevel(l, t.Levels)
	w, h := t.lv[l].w, t.lv[l].h
	x = wrap(x, w)
	y = wrap(y, h)
	hsh := colorHash(uint64(t.ID)<<40 ^ uint64(l)<<32 ^ uint64(x)<<16 ^ uint64(y))
	// Smooth gradient component, stable under wrapping.
	gx := uint8(255 * x / max(w, 1))
	gy := uint8(255 * y / max(h, 1))
	r := uint8(hsh)>>1 + gx>>1
	g := uint8(hsh>>8)>>1 + gy>>1
	b := uint8(hsh>>16)>>1 + 64
	return render.RGBA(r, g, b, 0xff)
}

func colorHash(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SampleColor returns the filtered color at normalized (u, v) with the
// given LOD under the given filter — the color twin of
// AppendFootprint. It is a pure function, so the rendered image cannot
// depend on scheduling.
func SampleColor(t *Texture, u, v, lod float64, f Filter) render.Color {
	switch f {
	case Bilinear:
		return bilinearColor(t, u, v, int(math.Round(lod)))
	case Trilinear:
		base := int(math.Floor(lod))
		c := bilinearColor(t, u, v, base)
		if frac := lod - math.Floor(lod); frac > 0 && base+1 < t.Levels {
			c = c.Lerp(bilinearColor(t, u, v, base+1), frac)
		}
		return c
	case Aniso2x:
		base := int(math.Floor(lod)) - 1
		if base < 0 {
			base = 0
		}
		w, _ := t.LevelDims(base)
		du := 1.0 / float64(w)
		a := bilinearColor(t, u-du, v, base)
		b := bilinearColor(t, u+du, v, base)
		return a.Lerp(b, 0.5)
	default:
		return bilinearColor(t, u, v, int(math.Round(lod)))
	}
}

// bilinearColor filters the 2x2 texel neighbourhood around (u, v).
func bilinearColor(t *Texture, u, v float64, level int) render.Color {
	level = clampLevel(level, t.Levels)
	w, h := t.lv[level].w, t.lv[level].h
	tu := u*float64(w) - 0.5
	tv := v*float64(h) - 0.5
	x0 := int(math.Floor(tu))
	y0 := int(math.Floor(tv))
	fx := tu - float64(x0)
	fy := tv - float64(y0)
	top := t.TexelColor(level, x0, y0).Lerp(t.TexelColor(level, x0+1, y0), fx)
	bot := t.TexelColor(level, x0, y0+1).Lerp(t.TexelColor(level, x0+1, y0+1), fx)
	return top.Lerp(bot, fy)
}
