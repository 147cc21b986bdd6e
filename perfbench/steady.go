package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"dtexl/internal/stats"
)

// steadyMain is the steadiness command: it runs each workload n times in
// alternation (seeds 1..n, each run a fresh process of this binary) and
// prints, per workload and metric, the median, the quartiles and their
// spread as a share of the median, beside the metric's bound when
// BENCHMARK.json is in the working directory.
func steadyMain(n int, seconds float64, traced bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	bounds := readBounds("BENCHMARK.json")
	trace := "0"
	metrics := endToEnd
	if traced {
		trace, metrics = "1", perLayer
	}
	vals := map[string]map[string][]float64{}
	status := 0
	for i := 1; i <= n; i++ {
		for _, w := range workloadOrder {
			cmd := exec.Command(exe, "--workload", w, "--seed", strconv.Itoa(i),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", trace)
			var errBuf bytes.Buffer
			cmd.Stderr = &errBuf
			start := time.Now()
			out, err := cmd.Output()
			wall := time.Since(start)
			res, perr := lastResult(out)
			if err != nil || perr != nil || !res.Correct {
				fmt.Fprintf(stderr, "%s seed %d FAILED: %v %v\n%s", w, i, err, perr, errBuf.String())
				status = 1
				continue
			}
			if vals[w] == nil {
				vals[w] = map[string][]float64{}
			}
			var line []string
			for _, m := range metrics {
				v := res.Metrics[m.name].Value
				vals[w][m.name] = append(vals[w][m.name], v)
				line = append(line, fmt.Sprintf("%s=%.4g", m.name, v))
			}
			fmt.Fprintf(stderr, "%s seed %d (%.1f s): %s\n", w, i, wall.Seconds(), strings.Join(line, " "))
		}
	}
	fmt.Fprintf(stdout, "%-12s %-30s %-6s %12s %12s %12s %8s %6s\n", "workload", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, w := range workloadOrder {
		for _, m := range metrics {
			xs := vals[w][m.name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			med := stats.Median(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			bound := "-"
			if bd, ok := bounds[m.name]; ok {
				bound = strconv.FormatFloat(bd, 'f', -1, 64)
			}
			fmt.Fprintf(stdout, "%-12s %-30s %-6s %12.5g %12.5g %12.5g %8.4f %6s\n", w, m.name, m.unit, q1, med, q3, spread, bound)
		}
	}
	return status
}

// lastResult parses the result line a run prints last.
func lastResult(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// readBounds returns each end-to-end metric's bound from a
// BENCHMARK.json, or nothing when the file is absent.
func readBounds(path string) map[string]float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &doc) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
