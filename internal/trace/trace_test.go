package trace

import (
	"math"
	"testing"
	"testing/quick"

	"dtexl/internal/texture"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/100 times", same)
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
		if n := r.Intn(7); n < 0 || n >= 7 {
			t.Fatalf("Intn = %d", n)
		}
		if x := r.Range(2, 5); x < 2 || x >= 5 {
			t.Fatalf("Range = %v", x)
		}
		if n := r.IntRange(3, 6); n < 3 || n > 6 {
			t.Fatalf("IntRange = %d", n)
		}
		if x := r.Triangular(0, 10); x < 0 || x > 10 {
			t.Fatalf("Triangular = %v", x)
		}
	}
	if got := r.IntRange(5, 5); got != 5 {
		t.Errorf("degenerate IntRange = %d", got)
	}
	if got := r.IntRange(5, 2); got != 5 {
		t.Errorf("inverted IntRange = %d", got)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(99)
	var buckets [10]int
	n := 100000
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, b := range buckets {
		if math.Abs(float64(b)-float64(n)/10) > float64(n)/10*0.1 {
			t.Errorf("bucket %d = %d, far from uniform", i, b)
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	r := NewRNG(5)
	n := 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Gaussian(10, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.15 {
		t.Errorf("sigma = %v", math.Sqrt(variance))
	}
}

func TestProfilesMatchTableI(t *testing.T) {
	ps := Profiles()
	if len(ps) != 10 {
		t.Fatalf("suite size = %d, want 10", len(ps))
	}
	footprints := map[string]float64{
		"CCS": 2.4, "SoD": 1.4, "TRu": 0.4, "SWa": 0.2, "CRa": 2.8,
		"RoK": 6.8, "DDS": 1.4, "Snp": 1.8, "Mze": 2.4, "GTr": 0.7,
	}
	types2D := map[string]bool{"CCS": true, "RoK": true}
	for _, p := range ps {
		want, ok := footprints[p.Alias]
		if !ok {
			t.Errorf("unexpected alias %q", p.Alias)
			continue
		}
		if p.TextureFootprintMiB != want {
			t.Errorf("%s footprint = %v, want %v", p.Alias, p.TextureFootprintMiB, want)
		}
		if p.Is2D != types2D[p.Alias] {
			t.Errorf("%s Is2D = %v", p.Alias, p.Is2D)
		}
		if p.Overdraw <= 1 {
			t.Errorf("%s overdraw %v must exceed 1", p.Alias, p.Overdraw)
		}
		if p.HorizontalBias < 1 {
			t.Errorf("%s horizontal bias %v must be >= 1", p.Alias, p.HorizontalBias)
		}
	}
}

// TestProfileByAlias: every alias resolves to its own Table I profile,
// without allocating (the lookup runs on every served request and
// every simulation), and the copy Profiles returns is the caller's.
func TestProfileByAlias(t *testing.T) {
	p, err := ProfileByAlias("GTr")
	if err != nil || p.Name != "Gravitytetris" {
		t.Errorf("ProfileByAlias(GTr) = %+v, %v", p, err)
	}
	if _, err := ProfileByAlias("nope"); err == nil {
		t.Error("unknown alias accepted")
	}
	if n := len(Aliases()); n != 10 {
		t.Errorf("Aliases() returned %d entries", n)
	}
	ps := Profiles()
	for i, alias := range Aliases() {
		if p, err := ProfileByAlias(alias); err != nil || p != ps[i] {
			t.Errorf("ProfileByAlias(%s) = %+v, %v; want Table I row %d", alias, p, err, i)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ProfileByAlias("GTr") }); n != 0 {
		t.Errorf("ProfileByAlias allocates %v times per call, want 0", n)
	}
	ps[0].Overdraw = 99
	if p, _ := ProfileByAlias(ps[0].Alias); p.Overdraw == 99 {
		t.Error("changing the slice Profiles returned changed the table")
	}
}

func TestGenerateSceneDeterministic(t *testing.T) {
	p, _ := ProfileByAlias("TRu")
	a := GenerateScene(p, 512, 256, 7)
	b := GenerateScene(p, 512, 256, 7)
	if len(a.Draws) != len(b.Draws) || a.TriangleCount() != b.TriangleCount() {
		t.Fatal("same seed produced different scenes")
	}
	for i := range a.Draws {
		if len(a.Draws[i].Vertices) != len(b.Draws[i].Vertices) {
			t.Fatal("draw vertex counts differ")
		}
		for j := range a.Draws[i].Vertices {
			if a.Draws[i].Vertices[j] != b.Draws[i].Vertices[j] {
				t.Fatal("vertex data differs")
			}
		}
	}
	c := GenerateScene(p, 512, 256, 8)
	if c.TriangleCount() == a.TriangleCount() && len(c.Draws) == len(a.Draws) {
		// Counts may coincide, but vertex data must differ somewhere.
		differs := false
	outer:
		for i := range a.Draws {
			for j := range a.Draws[i].Vertices {
				if a.Draws[i].Vertices[j] != c.Draws[i].Vertices[j] {
					differs = true
					break outer
				}
			}
		}
		if !differs {
			t.Error("different seeds produced identical scenes")
		}
	}
}

func TestGeneratedFootprintMatchesProfile(t *testing.T) {
	for _, p := range Profiles() {
		s := GenerateScene(p, 256, 128, 1)
		got := float64(s.TextureFootprintBytes()) / (1 << 20)
		if got < 0.4*p.TextureFootprintMiB || got > 1.8*p.TextureFootprintMiB {
			t.Errorf("%s: generated footprint %.2f MiB, profile says %.2f MiB", p.Alias, got, p.TextureFootprintMiB)
		}
	}
}

func TestGeneratedCoverageMatchesOverdraw(t *testing.T) {
	// Total generated triangle area should be close to Overdraw * screen.
	for _, alias := range []string{"CCS", "TRu", "CRa"} {
		p, _ := ProfileByAlias(alias)
		w, h := 640, 360
		s := GenerateScene(p, w, h, 3)
		area := 0.0
		for _, d := range s.Draws {
			for i := 0; i+2 < len(d.Indices); i += 3 {
				a := d.Vertices[d.Indices[i]].Pos
				b := d.Vertices[d.Indices[i+1]].Pos
				c := d.Vertices[d.Indices[i+2]].Pos
				// The world is wider than the screen: count only the
				// visible population (center on-screen).
				cx := (a.X + b.X + c.X) / 3
				cy := (a.Y + b.Y + c.Y) / 3
				if cx < 0 || cx >= float64(w) || cy < 0 || cy >= float64(h) {
					continue
				}
				area += math.Abs((b.X-a.X)*(c.Y-a.Y)-(c.X-a.X)*(b.Y-a.Y)) / 2
			}
		}
		want := p.Overdraw * float64(w*h)
		if area < 0.55*want || area > 1.45*want {
			t.Errorf("%s: visible area %.0f, want about %.0f", alias, area, want)
		}
	}
}

func TestGeneratedSceneStructure(t *testing.T) {
	p, _ := ProfileByAlias("SoD")
	s := GenerateScene(p, 512, 256, 11)
	if len(s.Textures) == 0 {
		t.Fatal("no textures")
	}
	if len(s.Draws) < 2 {
		t.Fatalf("only %d draws", len(s.Draws))
	}
	for di, d := range s.Draws {
		if len(d.Indices)%3 != 0 {
			t.Errorf("draw %d: index count %d not divisible by 3", di, len(d.Indices))
		}
		for _, ix := range d.Indices {
			if ix < 0 || ix >= len(d.Vertices) {
				t.Fatalf("draw %d: index %d out of range", di, ix)
			}
		}
		if d.Tex == nil {
			t.Errorf("draw %d: nil texture", di)
		}
		if d.Shader.Instructions <= 0 || d.Shader.Samples <= 0 {
			t.Errorf("draw %d: degenerate shader profile %+v", di, d.Shader)
		}
		for _, v := range d.Vertices {
			if v.Pos.Z < 0 || v.Pos.Z > 1 {
				t.Errorf("draw %d: depth %v outside [0,1]", di, v.Pos.Z)
			}
		}
	}
	// Vertex buffers must not overlap.
	for i := 1; i < len(s.Draws); i++ {
		prev := s.Draws[i-1]
		end := prev.VertexBase + uint64(len(prev.Vertices)*VertexBytes)
		if s.Draws[i].VertexBase < end {
			t.Fatalf("vertex buffers overlap between draws %d and %d", i-1, i)
		}
	}
}

func Test2DScenesPaintBackToFront(t *testing.T) {
	p, _ := ProfileByAlias("CCS")
	s := GenerateScene(p, 512, 256, 2)
	// Skip the background draw; object depths must be non-increasing.
	last := math.Inf(1)
	for _, d := range s.Draws[1:] {
		for i := 0; i+2 < len(d.Indices); i += 3 {
			z := d.Vertices[d.Indices[i]].Pos.Z
			if z > last+1e-9 {
				t.Fatalf("2D scene not back-to-front: depth %v after %v", z, last)
			}
			last = z
		}
	}
}

func TestSceneScalesWithResolution(t *testing.T) {
	p, _ := ProfileByAlias("Mze")
	small := GenerateScene(p, 256, 128, 1)
	large := GenerateScene(p, 1024, 512, 1)
	if large.TriangleCount() <= small.TriangleCount() {
		t.Errorf("triangle count did not scale: %d vs %d", small.TriangleCount(), large.TriangleCount())
	}
}

func TestTextureFootprintBytesSum(t *testing.T) {
	s := &Scene{Textures: []*texture.Texture{
		texture.New(0, 0, 64, 64),
		texture.New(1, 1<<20, 128, 128),
	}}
	want := s.Textures[0].SizeBytes() + s.Textures[1].SizeBytes()
	if got := s.TextureFootprintBytes(); got != want {
		t.Errorf("footprint = %d, want %d", got, want)
	}
}

func TestAllocTexturesAlwaysAtLeastOne(t *testing.T) {
	texs := allocTextures(0.01) // tiny footprint
	if len(texs) == 0 {
		t.Fatal("no textures for tiny footprint")
	}
}

func TestHashAliasDistinct(t *testing.T) {
	seen := make(map[uint64]string)
	for _, a := range Aliases() {
		h := hashAlias(a)
		if prev, dup := seen[h]; dup {
			t.Fatalf("alias hash collision: %s vs %s", a, prev)
		}
		seen[h] = a
	}
}

func TestRangeProperty(t *testing.T) {
	f := func(seed uint64, lo8, span8 uint8) bool {
		lo := float64(lo8)
		hi := lo + float64(span8) + 1
		r := NewRNG(seed)
		x := r.Range(lo, hi)
		return x >= lo && x < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
