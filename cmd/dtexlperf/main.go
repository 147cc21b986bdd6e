// Command dtexlperf is the continuous-perf service (DESIGN.md §13):
// it ingests every bench run — `go test -bench` text, benchguard -json
// reports, golden-metrics JSON — into a per-benchmark time series
// keyed by commit, detects step-change regressions with a
// windowed median/MAD changepoint test, serves a dashboard + JSON API,
// and auto-bisects a detected regression by re-running the offending
// microbenchmark per commit in git worktrees.
//
// Usage:
//
//	dtexlperf -db perf.db ingest -commit <sha> [-format auto] file...
//	dtexlperf -db perf.db detect [-window N] [-k K] [-minrel R] [-all]
//	dtexlperf -db perf.db serve -addr :8123 [-repo .]
//	dtexlperf -db perf.db bisect -bench BenchmarkX -repo . \
//	          -good <sha> -bad <sha> [-runs 3] [-budget 45] [-par 1]
//
// Exit codes: 0 ok (detect: no regressions); 1 regressions detected /
// bisection failed; 2 bad input.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dtexl/internal/netauth"
	"dtexl/internal/perfdb"
	"dtexl/internal/stats"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("dtexlperf", flag.ExitOnError)
	dbDir := fs.String("db", "perf.db", "perf database directory")
	verbose := fs.Bool("v", false, "log each notable event")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dtexlperf [-db dir] <ingest|detect|serve|bisect> [args]\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	db, err := perfdb.Open(*dbDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtexlperf:", err)
		return 2
	}
	defer db.Close()
	if n := db.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "dtexlperf: warning: dropped %d unreadable batches (or legacy log lines) on open\n", n)
	}

	cmd, args := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "ingest":
		return cmdIngest(db, args)
	case "detect":
		return cmdDetect(db, args)
	case "serve":
		return cmdServe(db, args, logf)
	case "bisect":
		return cmdBisect(db, args, logf)
	default:
		fmt.Fprintf(os.Stderr, "dtexlperf: unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}
}

func cmdIngest(db *perfdb.DB, args []string) int {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	commit := fs.String("commit", "", "commit the run measured (required)")
	format := fs.String("format", perfdb.FormatAuto,
		"artifact format: auto, gobench, benchguard, metrics")
	fs.Parse(args)
	if *commit == "" || fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "dtexlperf ingest: need -commit and at least one file")
		return 2
	}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtexlperf ingest:", err)
			return 2
		}
		rawID, n, err := db.Ingest(*format, *commit, filepath.Base(path), data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtexlperf ingest:", err)
			return 2
		}
		fmt.Printf("ingested %s: %d points at %s (raw %s)\n", path, n, *commit, rawID)
	}
	return 0
}

// detectFlags registers the detector knobs shared by detect and serve.
func detectFlags(fs *flag.FlagSet) (window *int, k, minrel *float64) {
	window = fs.Int("window", 0, "detector window (0 = calibrated default)")
	k = fs.Float64("k", 0, "significance threshold in MAD multiples (0 = default)")
	minrel = fs.Float64("minrel", 0, "minimum relative shift (0 = default)")
	return
}

func cmdDetect(db *perfdb.DB, args []string) int {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	window, k, minrel := detectFlags(fs)
	all := fs.Bool("all", false, "report improvements too, not just regressions")
	fs.Parse(args)
	cfg := stats.StepConfig{Window: *window, K: *k, MinRel: *minrel}
	changes := db.Detect(cfg)
	regressions := 0
	for _, c := range changes {
		if c.Regression {
			regressions++
		} else if !*all {
			continue
		}
		kind := "improvement"
		if c.Regression {
			kind = "REGRESSION"
		}
		fmt.Printf("%-11s %-55s %s -> %s  %.3fx (score %.1f)\n",
			kind, c.Series, short(c.LastGood), short(c.FirstBad), c.Step.Ratio, c.Step.Score)
	}
	fmt.Printf("%d series, %d regressions\n", len(db.SeriesNames()), regressions)
	if regressions > 0 {
		return 1
	}
	return 0
}

func cmdServe(db *perfdb.DB, args []string, logf func(string, ...any)) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8123", "listen address")
	repo := fs.String("repo", "", "git repository for /api/bisect worktrees (empty: bisection over HTTP needs explicit commit lists and is run elsewhere)")
	par := fs.Int("par", 1, "max concurrent bisection worktrees")
	benchTime := fs.String("benchtime", "0.2s", "-benchtime per bisection measurement")
	var auth netauth.Flags
	auth.Register(fs)
	fs.Parse(args)

	token, err := auth.Token()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtexlperf serve:", err)
		return 1
	}
	tlsCfg, err := auth.ServerTLS()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtexlperf serve:", err)
		return 1
	}
	// The token gates POST /api/ingest and /api/bisect; the dashboard and
	// every read API stay open — the chart is for people, writes are CI's.
	cfg := perfdb.ServerConfig{DB: db, Repo: *repo, AuthToken: token, Logf: logf}
	if *repo != "" {
		wt := &perfdb.WorktreeRunner{
			Repo: *repo, Parallel: *par, BenchTime: *benchTime, Logf: logf,
		}
		cfg.Bisect = wt.Run
	}
	srv := &http.Server{Addr: *addr, Handler: perfdb.NewServer(cfg).Handler(), TLSConfig: tlsCfg}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtexlperf serve:", err)
		return 1
	}
	errc := make(chan error, 1)
	go func() { errc <- netauth.Serve(srv, ln, tlsCfg) }()
	fmt.Fprintf(os.Stderr, "dtexlperf: serving on %s://%s (ingest auth %v)\n", netauth.URLScheme(tlsCfg), ln.Addr(), token != "")

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "dtexlperf serve:", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "dtexlperf: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		return 0
	}
}

func cmdBisect(db *perfdb.DB, args []string, logf func(string, ...any)) int {
	fs := flag.NewFlagSet("bisect", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark (series) to bisect (required)")
	repo := fs.String("repo", ".", "git repository to check commits out of")
	goodC := fs.String("good", "", "last good commit (required)")
	badC := fs.String("bad", "", "first bad commit (required)")
	runs := fs.Int("runs", 3, "measurements per probed commit")
	budget := fs.Int("budget", 0, "total measurement budget (0 = default)")
	par := fs.Int("par", 1, "max concurrent worktrees")
	benchTime := fs.String("benchtime", "0.2s", "-benchtime per measurement")
	timeout := fs.Duration("timeout", 30*time.Minute, "whole-bisection budget")
	fs.Parse(args)
	if *bench == "" || *goodC == "" || *badC == "" {
		fmt.Fprintln(os.Stderr, "dtexlperf bisect: need -bench, -good and -bad")
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	// Reuse the server's range expansion and level lookup by going
	// through its handler-independent pieces: build the runner and a
	// request the library-level API consumes.
	wt := &perfdb.WorktreeRunner{Repo: *repo, Parallel: *par, BenchTime: *benchTime, Logf: logf}
	commits, good, bad, err := perfdb.ResolveBisectRange(ctx, db, *repo, *bench, *goodC, *badC)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtexlperf bisect:", err)
		return 2
	}
	b := perfdb.Bisector{Run: wt.Run, RunsPerCommit: *runs, Budget: *budget, Logf: logf}
	res, err := b.Bisect(ctx, commits, *bench, good, bad)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtexlperf bisect:", err)
		return 1
	}
	for _, p := range res.Probes {
		verdict := "good"
		if p.Bad {
			verdict = "bad"
		}
		fmt.Printf("probe %s  %.1f  %s (%d runs)\n", short(p.Commit), p.Median, verdict, p.Runs)
	}
	fmt.Printf("culprit: %s (last good %s, %d measurements)\n",
		res.Culprit, short(res.LastGood), res.Measurements)
	return 0
}

func short(commit string) string {
	if len(commit) > 12 {
		return commit[:12]
	}
	return commit
}
