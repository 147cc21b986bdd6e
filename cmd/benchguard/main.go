// Command benchguard compares two `go test -bench` output files and
// fails when the geometric mean of the per-benchmark ns/op ratios
// (new/old) regresses beyond a threshold. It is the deterministic gate
// behind the CI bench job: benchstat renders the human-readable deltas,
// benchguard decides pass/fail.
//
// Each benchmark's repeated measurements (-count=N) collapse to their
// median, which tolerates one or two noisy runs per benchmark; the
// geomean across benchmarks tolerates a single benchmark jumping on a
// noisy runner without letting a broad slowdown through.
//
// Usage:
//
//	benchguard -old BENCH_baseline.txt -new bench_new.txt -threshold 0.15
//
// Exit codes: 0 = within threshold; 1 = regression; 2 = bad input (a
// file is unreadable, or no benchmark appears in both files).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"

	"dtexl/internal/stats"
)

// report is one comparison: a row per common benchmark and the
// geometric mean of their ratios, the pass/fail statistic.
type report struct {
	Threshold    float64
	Benchmarks   []benchmarkRow
	GeomeanRatio float64
	Pass         bool
}

// benchmarkRow compares one benchmark's median ns/op.
type benchmarkRow struct {
	Name       string
	OldNsPerOp float64
	NewNsPerOp float64
	Ratio      float64 // new/old medians
}

// buildReport compares two parsed bench runs over their common
// benchmarks. Pure: the testable core of the command.
func buildReport(oldRuns, newRuns map[string][]float64, threshold float64) (*report, error) {
	names := make([]string, 0, len(oldRuns))
	for name := range oldRuns {
		if _, ok := newRuns[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no benchmark appears in both files")
	}

	rep := &report{Threshold: threshold}
	ratios := make([]float64, len(names))
	for i, name := range names {
		o := stats.Median(oldRuns[name])
		n := stats.Median(newRuns[name])
		ratios[i] = n / o
		rep.Benchmarks = append(rep.Benchmarks, benchmarkRow{
			Name:       name,
			OldNsPerOp: o,
			NewNsPerOp: n,
			Ratio:      ratios[i],
		})
	}
	// Every ratio is positive: the parser keeps only positive samples.
	rep.GeomeanRatio = stats.GeoMean(ratios)
	rep.Pass = rep.GeomeanRatio <= 1+threshold
	return rep, nil
}

// render prints the human-readable table the CI log shows.
func render(w io.Writer, rep *report) {
	fmt.Fprintf(w, "%-50s %12s %12s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, b := range rep.Benchmarks {
		fmt.Fprintf(w, "%-50s %12.1f %12.1f %7.3fx\n", b.Name, b.OldNsPerOp, b.NewNsPerOp, b.Ratio)
	}
	fmt.Fprintf(w, "geomean ratio: %.3fx over %d benchmarks (threshold %.3fx)\n",
		rep.GeomeanRatio, len(rep.Benchmarks), 1+rep.Threshold)
}

func parseFile(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseGoBenchSamples(f)
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op`)

// parseGoBenchSamples reads `go test -bench` output into benchmark
// name -> ns/op samples (one per -count repetition). The trailing -N
// GOMAXPROCS suffix is stripped so runs from hosts with different
// core counts compare.
func parseGoBenchSamples(r io.Reader) (map[string][]float64, error) {
	out := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil || v <= 0 {
			continue
		}
		out[m[1]] = append(out[m[1]], v)
	}
	return out, sc.Err()
}

func main() {
	oldPath := flag.String("old", "BENCH_baseline.txt", "baseline benchmark output")
	newPath := flag.String("new", "", "candidate benchmark output")
	threshold := flag.Float64("threshold", 0.15, "maximum allowed geomean slowdown (0.15 = +15%)")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -new is required")
		os.Exit(2)
	}
	oldRuns, err := parseFile(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	newRuns, err := parseFile(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}

	rep, err := buildReport(oldRuns, newRuns, *threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	render(os.Stdout, rep)
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "benchguard: geomean regression %.1f%% exceeds %.1f%%\n",
			(rep.GeomeanRatio-1)*100, *threshold*100)
		os.Exit(1)
	}
}
