package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func parseFixture(t *testing.T, name string) map[string][]float64 {
	t.Helper()
	runs, err := parseFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return runs
}

func fixtureReport(t *testing.T, threshold float64) *report {
	t.Helper()
	rep, err := buildReport(parseFixture(t, "bench_old.txt"), parseFixture(t, "bench_new.txt"), threshold)
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	return rep
}

func TestBuildReportMediansAndGeomean(t *testing.T) {
	rep := fixtureReport(t, 0.15)

	// Only benchmarks present in both files are compared; each side's
	// single-sided benchmark is dropped.
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2 (single-sided dropped): %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	hot := rep.Benchmarks[0]
	if hot.Name != "BenchmarkHotLoop" {
		t.Fatalf("benchmarks not sorted by name: first is %q", hot.Name)
	}
	// Medians of the fixture samples: old {1000000,1040000,980000} ->
	// 1000000; new {1250000,1230000,1275000} -> 1250000.
	if hot.OldNsPerOp != 1000000 || hot.NewNsPerOp != 1250000 {
		t.Errorf("HotLoop medians = %v/%v, want 1000000/1250000", hot.OldNsPerOp, hot.NewNsPerOp)
	}
	if math.Abs(hot.Ratio-1.25) > 1e-9 {
		t.Errorf("HotLoop ratio = %v, want 1.25", hot.Ratio)
	}
	// Scheduler medians: old {20000,20400,19800} -> 20000; new
	// {19000,19500,18800} -> 19000.
	sched := rep.Benchmarks[1]
	if math.Abs(sched.Ratio-0.95) > 1e-9 {
		t.Errorf("Scheduler ratio = %v, want 0.95", sched.Ratio)
	}
	wantGeo := math.Sqrt(1.25 * 0.95)
	if math.Abs(rep.GeomeanRatio-wantGeo) > 1e-9 {
		t.Errorf("geomean = %v, want %v", rep.GeomeanRatio, wantGeo)
	}
	// geomean ≈ 1.098: passes at 15%, fails at 5%.
	if !rep.Pass {
		t.Errorf("Pass = false at threshold 0.15, geomean %v", rep.GeomeanRatio)
	}
	if strict := fixtureReport(t, 0.05); strict.Pass {
		t.Errorf("Pass = true at threshold 0.05, geomean %v", strict.GeomeanRatio)
	}
}

func TestBuildReportNoCommonBenchmarks(t *testing.T) {
	_, err := buildReport(
		map[string][]float64{"BenchmarkA": {1}},
		map[string][]float64{"BenchmarkB": {1}}, 0.15)
	if err == nil {
		t.Fatal("expected error when no benchmark appears in both files")
	}
}

func TestRenderHumanOutput(t *testing.T) {
	var buf bytes.Buffer
	render(&buf, fixtureReport(t, 0.15))
	out := buf.String()
	for _, want := range []string{"BenchmarkHotLoop", "1.250x", "geomean ratio:", "over 2 benchmarks"} {
		if !strings.Contains(out, want) {
			t.Errorf("human output missing %q:\n%s", want, out)
		}
	}
}
