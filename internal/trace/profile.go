package trace

import (
	"fmt"
	"math"
	"slices"

	"dtexl/internal/texture"
)

// Profile parameterizes one synthetic benchmark. The ten instances below
// stand in for the commercial games of Table I; the knobs encode the
// workload properties the paper's analysis attributes the per-game
// variation to — texture footprint, overdraw and its spatial clustering,
// object shape bias, shader cost and filtering mode.
type Profile struct {
	Name     string // full game title (Table I)
	Alias    string // three-letter alias used in all figures
	Installs int    // millions of Google Play installs (Table I)
	Genre    string
	Is2D     bool

	// TextureFootprintMiB is the total texture memory, matching Table I.
	TextureFootprintMiB float64
	// Overdraw is the average number of generated fragments per pixel
	// (background included).
	Overdraw float64
	// Clustering in [0,1] is the fraction of object geometry concentrated
	// around a few screen hotspots — the depth-complexity clustering that
	// makes coarse-grained schedulers imbalanced (§II-B).
	Clustering float64
	// HorizontalBias >= 1 elongates objects horizontally; the paper
	// observes more overdraw clustering horizontally than vertically
	// ("gravity forces objects to be more horizontally shaped", §V-A).
	HorizontalBias float64
	// MeanTriArea is the mean on-screen triangle area in pixels.
	MeanTriArea float64
	// ShaderLen bounds the per-quad ALU instruction count [min, max].
	ShaderLen [2]int
	// SamplesPerQuad bounds the texture samples per quad [min, max].
	SamplesPerQuad [2]int
	Filter         texture.Filter
	// TexelDensity is texels per pixel at which surfaces are mapped.
	TexelDensity float64
	// Reuse in [0,1] is the probability that a primitive samples a shared
	// atlas region rather than a private one — cross-primitive texture
	// block reuse ("reuse of texture memory blocks varies greatly across
	// games", §IV-B).
	Reuse float64
	// UVJitter is the amplitude, in texels, of per-quad pseudo-random
	// sampling offsets (dependent reads, distortion effects). It lowers
	// the fraction of texture lines shared between adjacent quads.
	UVJitter float64
	// TransparentFrac in [0,1] is the fraction of object batches drawn
	// with alpha blending (particles, UI, glass). Transparent fragments
	// never update the Z-Buffer, adding the paper's §II-B transparency
	// overdraw.
	TransparentFrac float64
}

// inRange reports min <= v <= max; NaN fails every range.
func inRange(v, min, max float64) bool { return v >= min && v <= max }

// Validate reports whether the profile's knobs are inside the ranges the
// scene generator is defined over. The bounds are deliberately generous
// around the Table I suite but exclude the degenerate corners a fuzzer
// finds: NaN/Inf knobs, zero triangle areas, sample counts beyond the
// engine's per-warp fill slots (4), and shader lengths that overflow the
// generator's int16 instruction field.
func (p Profile) Validate() error {
	switch {
	case !(p.TextureFootprintMiB > 0) || p.TextureFootprintMiB > 64:
		return fmt.Errorf("trace: TextureFootprintMiB %v outside (0, 64]", p.TextureFootprintMiB)
	case !inRange(p.Overdraw, 1, 16):
		return fmt.Errorf("trace: Overdraw %v outside [1, 16]", p.Overdraw)
	case !inRange(p.Clustering, 0, 1):
		return fmt.Errorf("trace: Clustering %v outside [0, 1]", p.Clustering)
	case !inRange(p.HorizontalBias, 1, 8):
		return fmt.Errorf("trace: HorizontalBias %v outside [1, 8]", p.HorizontalBias)
	case !(p.MeanTriArea >= 1) || math.IsInf(p.MeanTriArea, 1):
		return fmt.Errorf("trace: MeanTriArea %v must be finite and >= 1", p.MeanTriArea)
	case p.ShaderLen[0] <= 0 || p.ShaderLen[1] < p.ShaderLen[0] || p.ShaderLen[1] > 1024:
		return fmt.Errorf("trace: ShaderLen %v must satisfy 0 < min <= max <= 1024", p.ShaderLen)
	case p.SamplesPerQuad[0] < 1 || p.SamplesPerQuad[1] < p.SamplesPerQuad[0] || p.SamplesPerQuad[1] > MaxShaderSamples:
		return fmt.Errorf("trace: SamplesPerQuad %v must satisfy 1 <= min <= max <= 4", p.SamplesPerQuad)
	case p.Filter != texture.Bilinear && p.Filter != texture.Trilinear && p.Filter != texture.Aniso2x:
		return fmt.Errorf("trace: unknown texture filter %v", p.Filter)
	case !(p.TexelDensity > 0) || p.TexelDensity > 16:
		return fmt.Errorf("trace: TexelDensity %v outside (0, 16]", p.TexelDensity)
	case !inRange(p.Reuse, 0, 1):
		return fmt.Errorf("trace: Reuse %v outside [0, 1]", p.Reuse)
	case !inRange(p.UVJitter, 0, 64):
		return fmt.Errorf("trace: UVJitter %v outside [0, 64]", p.UVJitter)
	case !inRange(p.TransparentFrac, 0, 1):
		return fmt.Errorf("trace: TransparentFrac %v outside [0, 1]", p.TransparentFrac)
	}
	return nil
}

// Profiles returns the ten-game benchmark suite of Table I in table
// order, as a copy the caller may change.
func Profiles() []Profile { return slices.Clone(tableI) }

// tableI is the suite in table order. It is built once, because
// ProfileByAlias runs on every served request and every simulation.
var tableI = []Profile{
	{
		Name: "Candy Crush Saga", Alias: "CCS", Installs: 1000, Genre: "Puzzle", Is2D: true,
		TextureFootprintMiB: 2.4, Overdraw: 1.9, Clustering: 0.30, HorizontalBias: 1.2,
		MeanTriArea: 1400, ShaderLen: [2]int{18, 36}, SamplesPerQuad: [2]int{1, 2},
		Filter: texture.Bilinear, TexelDensity: 1.4, Reuse: 0.70, UVJitter: 3.5, TransparentFrac: 0.35,
	},
	{
		Name: "Sonic Dash", Alias: "SoD", Installs: 100, Genre: "Arcade", Is2D: false,
		TextureFootprintMiB: 1.4, Overdraw: 2.4, Clustering: 0.50, HorizontalBias: 1.5,
		MeanTriArea: 2200, ShaderLen: [2]int{24, 48}, SamplesPerQuad: [2]int{2, 3},
		Filter: texture.Trilinear, TexelDensity: 1.4, Reuse: 0.50, UVJitter: 3.5, TransparentFrac: 0.15,
	},
	{
		Name: "Temple Run", Alias: "TRu", Installs: 500, Genre: "Arcade", Is2D: false,
		TextureFootprintMiB: 0.4, Overdraw: 2.8, Clustering: 0.80, HorizontalBias: 1.6,
		MeanTriArea: 2600, ShaderLen: [2]int{27, 57}, SamplesPerQuad: [2]int{2, 3},
		Filter: texture.Trilinear, TexelDensity: 1.5, Reuse: 0.60, UVJitter: 3.5, TransparentFrac: 0.12,
	},
	{
		Name: "Shoot Strike War Fire", Alias: "SWa", Installs: 10, Genre: "Shooter", Is2D: false,
		TextureFootprintMiB: 0.2, Overdraw: 2.2, Clustering: 0.50, HorizontalBias: 1.3,
		MeanTriArea: 1800, ShaderLen: [2]int{24, 42}, SamplesPerQuad: [2]int{2, 2},
		Filter: texture.Bilinear, TexelDensity: 1.3, Reuse: 0.60, UVJitter: 3.5, TransparentFrac: 0.18,
	},
	{
		Name: "City Racing 3D", Alias: "CRa", Installs: 50, Genre: "Racing", Is2D: false,
		TextureFootprintMiB: 2.8, Overdraw: 2.5, Clustering: 0.60, HorizontalBias: 2.0,
		MeanTriArea: 2400, ShaderLen: [2]int{27, 54}, SamplesPerQuad: [2]int{2, 4},
		Filter: texture.Aniso2x, TexelDensity: 1.6, Reuse: 0.40, UVJitter: 3.5, TransparentFrac: 0.15,
	},
	{
		Name: "Rise of Kingdoms: Lost Crusade", Alias: "RoK", Installs: 10, Genre: "Strategy", Is2D: true,
		TextureFootprintMiB: 6.8, Overdraw: 2.0, Clustering: 0.35, HorizontalBias: 1.2,
		MeanTriArea: 1600, ShaderLen: [2]int{18, 39}, SamplesPerQuad: [2]int{1, 3},
		Filter: texture.Bilinear, TexelDensity: 1.4, Reuse: 0.30, UVJitter: 3.5, TransparentFrac: 0.30,
	},
	{
		Name: "Derby Destruction Simulator", Alias: "DDS", Installs: 10, Genre: "Racing", Is2D: false,
		TextureFootprintMiB: 1.4, Overdraw: 2.4, Clustering: 0.55, HorizontalBias: 1.8,
		MeanTriArea: 2200, ShaderLen: [2]int{24, 48}, SamplesPerQuad: [2]int{2, 3},
		Filter: texture.Aniso2x, TexelDensity: 1.5, Reuse: 0.50, UVJitter: 3.5, TransparentFrac: 0.15,
	},
	{
		Name: "Sniper 3D", Alias: "Snp", Installs: 500, Genre: "Shooter", Is2D: false,
		TextureFootprintMiB: 1.8, Overdraw: 2.3, Clustering: 0.50, HorizontalBias: 1.4,
		MeanTriArea: 2000, ShaderLen: [2]int{27, 51}, SamplesPerQuad: [2]int{2, 3},
		Filter: texture.Trilinear, TexelDensity: 1.4, Reuse: 0.50, UVJitter: 3.5, TransparentFrac: 0.15,
	},
	{
		Name: "3D Maze 2: Diamonds & Ghosts", Alias: "Mze", Installs: 10, Genre: "Arcade", Is2D: false,
		TextureFootprintMiB: 2.4, Overdraw: 2.6, Clustering: 0.60, HorizontalBias: 1.7,
		MeanTriArea: 2400, ShaderLen: [2]int{21, 45}, SamplesPerQuad: [2]int{2, 3},
		Filter: texture.Trilinear, TexelDensity: 1.4, Reuse: 0.50, UVJitter: 3.5, TransparentFrac: 0.10,
	},
	{
		Name: "Gravitytetris", Alias: "GTr", Installs: 5, Genre: "Puzzle", Is2D: false,
		TextureFootprintMiB: 0.7, Overdraw: 2.1, Clustering: 0.45, HorizontalBias: 1.3,
		MeanTriArea: 1500, ShaderLen: [2]int{19, 38}, SamplesPerQuad: [2]int{2, 4},
		Filter: texture.Trilinear, TexelDensity: 1.4, Reuse: 0.80, UVJitter: 3.5, TransparentFrac: 0.20,
	},
}

// ProfileByAlias looks a profile up by its Table I alias.
func ProfileByAlias(alias string) (Profile, error) {
	for i := range tableI {
		if tableI[i].Alias == alias {
			return tableI[i], nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown benchmark alias %q", alias)
}

// Aliases returns the ten benchmark aliases in Table I order.
func Aliases() []string {
	out := make([]string, len(tableI))
	for i := range tableI {
		out[i] = tableI[i].Alias
	}
	return out
}
