// Package texture models the texture memory objects the shader cores
// sample: mip-mapped 2D textures laid out block-linearly in memory so
// that one 64-byte cache line holds a 4x4 block of RGBA8 texels. This is
// the standard mobile-GPU tiling that gives 2D spatial locality to a 1D
// address space — and the substrate on which the paper's entire
// texture-locality argument rests: screen-adjacent quads sample adjacent
// texels, which share cache lines.
//
// The footprint path (AppendFootprint) works in line numbers — byte
// address >> 6 — rather than byte addresses, so a texture's base must be
// 64-byte aligned (every level then starts on a line boundary, and a
// level's lines are its first line plus the Morton code of the block),
// and base+SizeBytes must stay below 2^38 so that every line number fits
// in a uint32. New panics otherwise.
package texture

import (
	"fmt"

	"dtexl/internal/tileorder"
)

const (
	// BytesPerTexel is the texel size (RGBA8).
	BytesPerTexel = 4
	// BlockDim is the side of the square texel block stored in one cache
	// line: 4x4 texels * 4 B = 64 B.
	BlockDim = 4
	// blockShift is log2(BlockDim).
	blockShift = 2
	// LineBytes is the cache line size the layout targets.
	LineBytes = BlockDim * BlockDim * BytesPerTexel
	// lineShift is log2(LineBytes): a line number is address >> lineShift.
	lineShift = 6
	// MaxAddrBits bounds a texture's address range: Base+SizeBytes must
	// stay below 1<<MaxAddrBits so that line numbers fit in a uint32.
	MaxAddrBits = 32 + lineShift
)

// Texture is a mip-mapped 2D texture. Width and Height must be powers of
// two (as required by the block-linear Morton layout).
type Texture struct {
	ID       int
	Base     uint64 // base address in the global GPU address space
	Width    int    // mip 0 texels
	Height   int
	Levels   int // number of mip levels
	lv       []mipLevel
	sizeByte uint64
}

// mipLevel is one level's addressing state, the per-texture table the
// footprint path reads once per probe (in the manner of MAME's RDP
// TexturePipe mask tables): sizes are powers of two, so wrapping is a
// mask, and the level's lines are line0 plus a block's Morton code.
type mipLevel struct {
	w, h         int
	xMask, yMask int    // w-1, h-1
	off          uint64 // byte offset from Base
	line0        uint32 // line number of the level's first block
}

// Validate reports why New would reject a texture: dimensions that are
// not positive powers of two, a base that is not LineBytes-aligned, or an
// address range [base, base+size) reaching 1<<MaxAddrBits.
func Validate(base uint64, width, height int) error {
	if width <= 0 || height <= 0 || width&(width-1) != 0 || height&(height-1) != 0 {
		return fmt.Errorf("texture: dimensions %dx%d must be positive powers of two", width, height)
	}
	if base%LineBytes != 0 {
		return fmt.Errorf("texture: base %#x is not %d-byte aligned", base, LineBytes)
	}
	// From 2^16 blocks a side, level 0 alone spans 2^38 bytes; checking
	// the sides first keeps mipChain's arithmetic from overflowing.
	if width >= BlockDim<<16 || height >= BlockDim<<16 {
		return fmt.Errorf("texture: %dx%d spans 1<<%d bytes or more", width, height, MaxAddrBits)
	}
	if _, size := mipChain(base, width, height); base >= 1<<MaxAddrBits || size >= 1<<MaxAddrBits-base {
		return fmt.Errorf("texture: range [%#x, %#x+%#x) reaches 1<<%d", base, base, size, MaxAddrBits)
	}
	return nil
}

// New creates a texture with a full mip chain down to 1x1. It panics
// when Validate reports an error (a configuration error in the synthetic
// scenes; trace.ReadScene rejects such textures in loaded ones).
func New(id int, base uint64, width, height int) *Texture {
	if err := Validate(base, width, height); err != nil {
		panic(err)
	}
	lv, size := mipChain(base, width, height)
	return &Texture{ID: id, Base: base, Width: width, Height: height, Levels: len(lv), lv: lv, sizeByte: size}
}

// mipChain lays out the full mip chain of a width x height texture at
// base, level after level, and returns the levels and their total size.
func mipChain(base uint64, w, h int) (lv []mipLevel, size uint64) {
	for {
		lv = append(lv, mipLevel{
			w: w, h: h, xMask: w - 1, yMask: h - 1,
			off:   size,
			line0: uint32((base + size) >> lineShift),
		})
		size += uint64(levelBytes(w, h))
		if w == 1 && h == 1 {
			return lv, size
		}
		w, h = max(w>>1, 1), max(h>>1, 1)
	}
}

// levelBytes returns the storage for one mip level, rounded up to whole
// blocks (lines).
func levelBytes(w, h int) int {
	bw := (w + BlockDim - 1) / BlockDim
	bh := (h + BlockDim - 1) / BlockDim
	// Morton layout needs the square power-of-two bound over the blocks.
	side := 1
	for side < bw || side < bh {
		side <<= 1
	}
	return side * side * LineBytes
}

// SizeBytes returns the total memory footprint of the texture including
// all mip levels.
func (t *Texture) SizeBytes() uint64 { return t.sizeByte }

// LevelDims returns the texel dimensions of mip level l (clamped).
func (t *Texture) LevelDims(l int) (w, h int) {
	m := &t.lv[clampLevel(l, t.Levels)]
	return m.w, m.h
}

// TexelAddr returns the address of texel (x, y) at mip level l. Out-of-
// range coordinates wrap (GL_REPEAT) and the level is clamped, matching
// the sampler's addressing rules.
func (t *Texture) TexelAddr(l, x, y int) uint64 {
	m := &t.lv[clampLevel(l, t.Levels)]
	x = wrap(x, m.w)
	y = wrap(y, m.h)
	block := tileorder.MortonEncode(x/BlockDim, y/BlockDim)
	inBlock := uint64((y%BlockDim)*BlockDim + x%BlockDim)
	return t.Base + m.off + block*LineBytes + inBlock*BytesPerTexel
}

func clampLevel(l, levels int) int {
	if l < 0 {
		return 0
	}
	if l >= levels {
		return levels - 1
	}
	return l
}

func wrap(x, n int) int {
	x %= n
	if x < 0 {
		x += n
	}
	return x
}
