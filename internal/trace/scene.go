package trace

import (
	"math"

	"dtexl/internal/geom"
	"dtexl/internal/texture"
)

// VertexBytes is the in-memory size of one vertex (position, UV, padding
// to a power-of-two stride), used to generate vertex-fetch addresses.
const VertexBytes = 32

// Vertex is one input vertex: an object-space position and a texture
// coordinate.
type Vertex struct {
	Pos geom.Vec3
	UV  geom.Vec2
}

// The pipeline's bounds on a shader profile: a resident warp tracks at
// most MaxShaderSamples sample fills, and a prepared quad stores its
// instruction count in an int16. ReadScene rejects traces beyond them,
// as Profile.Validate does for generated scenes.
const (
	MaxShaderSamples      = 4
	MaxShaderInstructions = math.MaxInt16
)

// ShaderProfile describes the per-quad cost of a draw's fragment shader:
// how many ALU instructions run between texture samples and how many
// texture samples each quad performs. Together with the texture footprint
// this determines quad execution time in the shader core.
type ShaderProfile struct {
	// Instructions is the number of single-cycle ALU instructions per
	// quad, spread uniformly between the samples.
	Instructions int
	// Samples is the number of texture samples per quad.
	Samples int
}

// DrawCommand is the unit of work submitted to the Geometry Pipeline: an
// indexed triangle list with its transform, texture and shader state.
type DrawCommand struct {
	// Transform maps object space directly to clip space (projection *
	// modelview), as produced by the application.
	Transform geom.Mat4
	// VertexBase is the address of the vertex buffer in GPU memory; the
	// Vertex Stage fetches through the vertex cache at
	// VertexBase + index*VertexBytes.
	VertexBase uint64
	Vertices   []Vertex
	// Indices is a triangle list (length divisible by 3) into Vertices.
	Indices []int
	Tex     *texture.Texture
	Shader  ShaderProfile
	Filter  texture.Filter
	// UVJitterTexels is the amplitude of the per-quad pseudo-random
	// sampling offset this draw's shader applies (dependent reads).
	UVJitterTexels float64
	// Alpha is the draw's opacity: 1 renders opaque (depth-writing);
	// anything below 1 renders transparent — fragments blend over the
	// color buffer and do not update the Z-Buffer, so they cannot occlude
	// later work (the paper's §II-B transparency overdraw).
	Alpha float64
}

// Scene is one frame's worth of input: the draw commands in submission
// order plus the textures they reference.
type Scene struct {
	Draws    []DrawCommand
	Textures []*texture.Texture
	// Width, Height are the target screen dimensions in pixels.
	Width, Height int
}

// TriangleCount returns the total number of triangles across all draws.
func (s *Scene) TriangleCount() int {
	n := 0
	for i := range s.Draws {
		n += len(s.Draws[i].Indices) / 3
	}
	return n
}

// TextureFootprintBytes returns the total size of all referenced
// textures, the Table I "texture footprint" metric.
func (s *Scene) TextureFootprintBytes() uint64 {
	var n uint64
	for _, t := range s.Textures {
		n += t.SizeBytes()
	}
	return n
}
