package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dtexl/internal/texture"
)

func TestSceneRoundTrip(t *testing.T) {
	p, _ := ProfileByAlias("SWa")
	orig := GenerateScene(p, 256, 128, 7)
	var buf bytes.Buffer
	if err := WriteScene(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScene(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != orig.Width || got.Height != orig.Height {
		t.Fatalf("dimensions %dx%d", got.Width, got.Height)
	}
	if len(got.Draws) != len(orig.Draws) || len(got.Textures) != len(orig.Textures) {
		t.Fatalf("structure mismatch: %d/%d draws, %d/%d textures",
			len(got.Draws), len(orig.Draws), len(got.Textures), len(orig.Textures))
	}
	for i := range orig.Draws {
		a, b := &orig.Draws[i], &got.Draws[i]
		if len(a.Vertices) != len(b.Vertices) {
			t.Fatalf("draw %d vertex count", i)
		}
		for j := range a.Vertices {
			if a.Vertices[j] != b.Vertices[j] {
				t.Fatalf("draw %d vertex %d mismatch", i, j)
			}
		}
		if a.Transform != b.Transform || a.VertexBase != b.VertexBase ||
			a.Shader != b.Shader || a.Filter != b.Filter ||
			a.UVJitterTexels != b.UVJitterTexels || a.Alpha != b.Alpha {
			t.Fatalf("draw %d state mismatch", i)
		}
		if a.Tex.Base != b.Tex.Base || a.Tex.Width != b.Tex.Width {
			t.Fatalf("draw %d texture mismatch", i)
		}
	}
}

func TestSceneRoundTripSecondGeneration(t *testing.T) {
	// Serializing the deserialized scene reproduces identical bytes:
	// the format is canonical.
	p, _ := ProfileByAlias("GTr")
	orig := GenerateScene(p, 128, 64, 3)
	var b1 bytes.Buffer
	if err := WriteScene(&b1, orig); err != nil {
		t.Fatal(err)
	}
	re, err := ReadScene(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := WriteScene(&b2, re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("format is not canonical: bytes differ after a round trip")
	}
}

func TestReadSceneValidation(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{`,
		"wrong version": `{"version":99,"width":64,"height":64}`,
		"bad dims":      `{"version":1,"width":0,"height":64}`,
		"bad texture":   `{"version":1,"width":64,"height":64,"textures":[{"id":0,"base":0,"width":100,"height":64}]}`,
		"bad tex ref": `{"version":1,"width":64,"height":64,"textures":[],
			"draws":[{"transform":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"vertices":[],"indices":[],"texture":0,"shaderInstructions":1,"shaderSamples":1,"filter":"bilinear","alpha":1}]}`,
		"bad indices": `{"version":1,"width":64,"height":64,"textures":[{"id":0,"base":0,"width":64,"height":64}],
			"draws":[{"transform":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"vertices":[{"pos":[0,0,0],"uv":[0,0]}],"indices":[0,0],"texture":0,"shaderInstructions":1,"shaderSamples":1,"filter":"bilinear","alpha":1}]}`,
		"oob index": `{"version":1,"width":64,"height":64,"textures":[{"id":0,"base":0,"width":64,"height":64}],
			"draws":[{"transform":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"vertices":[{"pos":[0,0,0],"uv":[0,0]}],"indices":[0,0,5],"texture":0,"shaderInstructions":1,"shaderSamples":1,"filter":"bilinear","alpha":1}]}`,
		"bad filter": `{"version":1,"width":64,"height":64,"textures":[{"id":0,"base":0,"width":64,"height":64}],
			"draws":[{"transform":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"vertices":[{"pos":[0,0,0],"uv":[0,0]}],"indices":[0,0,0],"texture":0,"shaderInstructions":1,"shaderSamples":1,"filter":"nearest","alpha":1}]}`,
		"bad shader": `{"version":1,"width":64,"height":64,"textures":[{"id":0,"base":0,"width":64,"height":64}],
			"draws":[{"transform":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"vertices":[{"pos":[0,0,0],"uv":[0,0]}],"indices":[0,0,0],"texture":0,"shaderInstructions":0,"shaderSamples":1,"filter":"bilinear","alpha":1}]}`,
	}
	// Bounds the pipeline cannot hold: a fifth sample overruns a warp's
	// fill slots, 40000 instructions wrap a quad's int16, and line
	// numbers need 64-byte aligned texture bases below 2^38.
	draw := func(instr, samples int) string {
		return fmt.Sprintf(`"draws":[{"transform":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"vertices":[{"pos":[0,0,0],"uv":[0,0]}],"indices":[0,0,0],"texture":0,"shaderInstructions":%d,"shaderSamples":%d,"filter":"bilinear","alpha":1}]`, instr, samples)
	}
	scene := func(base uint64, instr, samples int) string {
		return fmt.Sprintf(`{"version":1,"width":64,"height":64,"textures":[{"id":0,"base":%d,"width":64,"height":64}],%s}`, base, draw(instr, samples))
	}
	size := texture.New(0, 0, 64, 64).SizeBytes()
	cases["five samples"] = scene(0, 10, 5)
	cases["int16 instructions"] = scene(0, 40000, 1)
	cases["unaligned base"] = scene(0x1000_0020, 10, 1)
	cases["range reaches 2^38"] = scene(1<<texture.MaxAddrBits-size, 10, 1)
	cases["base past 2^38"] = scene(1<<40, 10, 1)
	for name, payload := range cases {
		if _, err := ReadScene(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The bounds themselves are accepted.
	for name, payload := range map[string]string{
		"four samples":     scene(0, 10, 4),
		"int16 max":        scene(0, 32767, 1),
		"range below 2^38": scene(1<<texture.MaxAddrBits-size-64, 10, 1),
		"64-byte base":     scene(0x1000_0040, 10, 1),
	} {
		if _, err := ReadScene(strings.NewReader(payload)); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

func TestWriteSceneRejectsForeignTexture(t *testing.T) {
	p, _ := ProfileByAlias("SWa")
	s := GenerateScene(p, 128, 64, 1)
	// Point a draw at a texture missing from Scene.Textures.
	s.Draws[0].Tex = s.Textures[0]
	s.Textures = s.Textures[:0]
	var buf bytes.Buffer
	if err := WriteScene(&buf, s); err == nil {
		t.Error("foreign texture accepted")
	}
}
