package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"dtexl/internal/geom"
	"dtexl/internal/texture"
)

// Scene trace format: a JSON serialization of one frame's draw stream,
// so workloads can be captured once (or produced by external tools) and
// replayed through the simulator — the role TEAPOT's GLES traces play in
// the original evaluation. The format carries exactly what the Geometry
// Pipeline consumes; texture *contents* are procedural, so a texture is
// just its geometry (ID, base address, dimensions).

// sceneJSON is the on-disk schema, versioned for forward evolution.
type sceneJSON struct {
	Version  int           `json:"version"`
	Width    int           `json:"width"`
	Height   int           `json:"height"`
	Textures []textureJSON `json:"textures"`
	Draws    []drawJSON    `json:"draws"`
}

type textureJSON struct {
	ID     int    `json:"id"`
	Base   uint64 `json:"base"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
}

type drawJSON struct {
	Transform  [4][4]float64 `json:"transform"`
	VertexBase uint64        `json:"vertexBase"`
	Vertices   []vertexJSON  `json:"vertices"`
	Indices    []int         `json:"indices"`
	Texture    int           `json:"texture"`
	Instr      int           `json:"shaderInstructions"`
	Samples    int           `json:"shaderSamples"`
	Filter     string        `json:"filter"`
	UVJitter   float64       `json:"uvJitterTexels,omitempty"`
	Alpha      float64       `json:"alpha"`
}

type vertexJSON struct {
	Pos [3]float64 `json:"pos"`
	UV  [2]float64 `json:"uv"`
}

// sceneFormatVersion is the current schema version.
const sceneFormatVersion = 1

var filterToName = map[texture.Filter]string{
	texture.Bilinear:  "bilinear",
	texture.Trilinear: "trilinear",
	texture.Aniso2x:   "aniso2x",
}

var nameToFilter = map[string]texture.Filter{
	"bilinear":  texture.Bilinear,
	"trilinear": texture.Trilinear,
	"aniso2x":   texture.Aniso2x,
}

// WriteScene serializes a scene as indented JSON.
func WriteScene(w io.Writer, s *Scene) error {
	out := sceneJSON{
		Version: sceneFormatVersion,
		Width:   s.Width,
		Height:  s.Height,
	}
	texIndex := make(map[*texture.Texture]int, len(s.Textures))
	for i, t := range s.Textures {
		texIndex[t] = i
		out.Textures = append(out.Textures, textureJSON{
			ID: t.ID, Base: t.Base, Width: t.Width, Height: t.Height,
		})
	}
	for di := range s.Draws {
		d := &s.Draws[di]
		ti, ok := texIndex[d.Tex]
		if !ok {
			return fmt.Errorf("trace: draw %d references a texture not in Scene.Textures", di)
		}
		dj := drawJSON{
			VertexBase: d.VertexBase,
			Indices:    d.Indices,
			Texture:    ti,
			Instr:      d.Shader.Instructions,
			Samples:    d.Shader.Samples,
			Filter:     filterToName[d.Filter],
			UVJitter:   d.UVJitterTexels,
			Alpha:      d.Alpha,
		}
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				dj.Transform[r][c] = d.Transform[r][c]
			}
		}
		for _, v := range d.Vertices {
			dj.Vertices = append(dj.Vertices, vertexJSON{
				Pos: [3]float64{v.Pos.X, v.Pos.Y, v.Pos.Z},
				UV:  [2]float64{v.UV.X, v.UV.Y},
			})
		}
		out.Draws = append(out.Draws, dj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&out)
}

// ReadScene parses a scene trace and validates it structurally.
func ReadScene(r io.Reader) (*Scene, error) {
	var in sceneJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: parsing scene: %w", err)
	}
	if in.Version != sceneFormatVersion {
		return nil, fmt.Errorf("trace: unsupported scene version %d (want %d)", in.Version, sceneFormatVersion)
	}
	if in.Width <= 0 || in.Height <= 0 {
		return nil, fmt.Errorf("trace: invalid scene dimensions %dx%d", in.Width, in.Height)
	}
	s := &Scene{Width: in.Width, Height: in.Height}
	for i, tj := range in.Textures {
		if err := texture.Validate(tj.Base, tj.Width, tj.Height); err != nil {
			return nil, fmt.Errorf("trace: texture %d: %w", i, err)
		}
		s.Textures = append(s.Textures, texture.New(tj.ID, tj.Base, tj.Width, tj.Height))
	}
	for di, dj := range in.Draws {
		if dj.Texture < 0 || dj.Texture >= len(s.Textures) {
			return nil, fmt.Errorf("trace: draw %d references texture %d of %d", di, dj.Texture, len(s.Textures))
		}
		if len(dj.Indices)%3 != 0 {
			return nil, fmt.Errorf("trace: draw %d index count %d not a triangle list", di, len(dj.Indices))
		}
		for _, ix := range dj.Indices {
			if ix < 0 || ix >= len(dj.Vertices) {
				return nil, fmt.Errorf("trace: draw %d has out-of-range index %d", di, ix)
			}
		}
		filter, ok := nameToFilter[dj.Filter]
		if !ok {
			return nil, fmt.Errorf("trace: draw %d has unknown filter %q", di, dj.Filter)
		}
		if dj.Instr <= 0 || dj.Samples <= 0 {
			return nil, fmt.Errorf("trace: draw %d has degenerate shader profile (%d instr, %d samples)", di, dj.Instr, dj.Samples)
		}
		if dj.Instr > MaxShaderInstructions || dj.Samples > MaxShaderSamples {
			return nil, fmt.Errorf("trace: draw %d shader profile (%d instr, %d samples) exceeds the pipeline's %d instr, %d samples",
				di, dj.Instr, dj.Samples, MaxShaderInstructions, MaxShaderSamples)
		}
		d := DrawCommand{
			VertexBase:     dj.VertexBase,
			Indices:        dj.Indices,
			Tex:            s.Textures[dj.Texture],
			Shader:         ShaderProfile{Instructions: dj.Instr, Samples: dj.Samples},
			Filter:         filter,
			UVJitterTexels: dj.UVJitter,
			Alpha:          dj.Alpha,
		}
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				d.Transform[r][c] = dj.Transform[r][c]
			}
		}
		for _, vj := range dj.Vertices {
			d.Vertices = append(d.Vertices, Vertex{
				Pos: geom.Vec3{X: vj.Pos[0], Y: vj.Pos[1], Z: vj.Pos[2]},
				UV:  geom.Vec2{X: vj.UV[0], Y: vj.UV[1]},
			})
		}
		s.Draws = append(s.Draws, d)
	}
	return s, nil
}
