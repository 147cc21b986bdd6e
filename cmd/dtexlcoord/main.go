// Command dtexlcoord coordinates a fleet of dtexld workers through a
// benchmark sweep: it slices the suite into leased cells and hands
// them to registered workers frame by frame — a worker stays on one
// benchmark, whose cells all read one prepared frame, until that
// benchmark's cells run out, and two workers open different
// benchmarks. It reassigns leases when heartbeats lapse, lets idle
// workers steal from slow ones, quarantines cells that exhaust their
// retry budget, and collects checksummed results into the
// content-addressed shared store. When every cell has settled it
// renders the requested experiment tables from the store —
// byte-identical to a serial dtexlbench run.
//
// The coordinator is highly available, and the store is its state: a
// second dtexlcoord started with -standby against the same store
// watches the current epoch's claim file (coordinator.claim.N), which
// the primary renews. When the primary dies and its claim goes stale,
// the standby claims epoch N+1, fencing the old one, scans the store
// for completed cells exactly as a fresh coordinator does, and takes
// over. Workers re-register once each; a cell that was running at the
// failover may be granted again, and its first holder's report is
// accepted as a late result, so no cell is lost.
//
// Usage:
//
//	dtexlcoord -addr :8100 -store shared/ -scale 8 \
//	           -exps fig11,fig16,fig17 -out fleet.txt -exit-when-done
//	dtexlcoord -addr :8101 -store shared/ -scale 8 -standby &  # hot standby
//	dtexld -coords http://127.0.0.1:8100,http://127.0.0.1:8101 &  # × N workers
//
// Endpoints:
//
//	POST /fleet/register|heartbeat|lease|complete|fail   worker protocol
//	GET  /fleet/stats                                    sweep + worker stats
//	GET  /healthz                                        liveness
//
// With -auth-token (or -auth-token-file) every mutating endpoint
// demands the bearer token; GETs and /healthz stay open for probes
// and dashboards. -tls-cert/-tls-key serve HTTPS; -tls-client-ca
// additionally demands client certificates (mTLS).
//
// Exit codes: 0 = suite settled (quarantined cells, if any, are
// reported in stats and the exit stays 0 — assert on them with
// dtexlload -expect-quarantined); 1 = setup error or render failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dtexl/internal/fleet"
	"dtexl/internal/netauth"
	"dtexl/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:8100", "listen address")
		storeDir  = flag.String("store", "", "shared result store directory (required)")
		scale     = flag.Int("scale", 4, "resolution divisor for the sweep (1 = the paper's 1960x768)")
		seed      = flag.Uint64("seed", 1, "scene generator seed")
		frames    = flag.Int("frames", 1, "animation frames per cell")
		benches   = flag.String("benchmarks", "", "comma-separated benchmark aliases (empty = full suite)")
		heartbeat = flag.Duration("heartbeat", fleet.DefaultHeartbeatInterval, "heartbeat interval workers are told to use")
		hbTimeout = flag.Duration("heartbeat-timeout", 0, "lapse after which a worker's leases are reassigned (0 = 4x -heartbeat)")
		budget    = flag.Int("retry-budget", fleet.DefaultRetryBudget, "lease grants per cell before quarantine")
		stealAft  = flag.Duration("steal-after", fleet.DefaultStealAfter, "lease age past which idle workers may steal the cell")
		exps      = flag.String("exps", "", "comma-separated experiments to render from the store once the suite settles")
		out       = flag.String("out", "", "write the rendered experiments to this file (default stdout)")
		exitDone  = flag.Bool("exit-when-done", false, "exit once the suite settles (after rendering -exps)")
		maxBytes  = flag.Int64("store-max-bytes", 0, "GC the store oldest-first to at most this many bytes (0 = unbounded); the live sweep's entries are never evicted")
		maxAge    = flag.Duration("store-max-age", 0, "GC store entries older than this (0 = unbounded), e.g. 168h; the live sweep's entries are never evicted")
		nodeID    = flag.String("node-id", "", "name for this coordinator in its epoch claim file and stats (default host-pid)")
		standby   = flag.Bool("standby", false, "start as a hot standby: serve 503 and watch the epoch claim file, taking over only when the primary's claim goes stale")
		leaseIvl  = flag.Duration("lease-interval", fleet.DefaultLeaseInterval, "epoch claim renewal (primary) and poll (standby) cadence")
		leaseTmo  = flag.Duration("lease-timeout", 0, "age of the last claim renewal past which a standby seizes the next epoch (0 = 4x -lease-interval)")
		verbose   = flag.Bool("v", false, "log per-event lines")
	)
	var auth netauth.Flags
	auth.Register(flag.CommandLine)
	flag.Parse()

	if *storeDir == "" {
		log.Printf("dtexlcoord: -store is required")
		return 1
	}
	token, err := auth.Token()
	if err != nil {
		log.Printf("dtexlcoord: %v", err)
		return 1
	}
	tlsCfg, err := auth.ServerTLS()
	if err != nil {
		log.Printf("dtexlcoord: %v", err)
		return 1
	}
	store, err := sim.OpenStore(*storeDir)
	if err != nil {
		log.Printf("dtexlcoord: %v", err)
		return 1
	}
	logf := func(format string, args ...any) { log.Printf(format, args...) }
	if !*verbose {
		logf = func(string, ...any) {}
	}
	store.Logf = func(format string, args ...any) { log.Printf(format, args...) }

	node := *nodeID
	if node == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "coord"
		}
		node = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	opt := sim.ScaledOptions(*scale)
	opt.Seed = *seed
	opt.Frames = *frames
	if *benches != "" {
		opt.Benchmarks = strings.Split(*benches, ",")
	}
	ha, err := fleet.NewHA(fleet.HAConfig{
		Coordinator: fleet.CoordinatorConfig{
			Opt:               opt,
			Store:             store,
			HeartbeatInterval: *heartbeat,
			HeartbeatTimeout:  *hbTimeout,
			RetryBudget:       *budget,
			StealAfter:        *stealAft,
			Logf:              logf,
		},
		NodeID:        node,
		Standby:       *standby,
		LeaseInterval: *leaseIvl,
		LeaseTimeout:  *leaseTmo,
		Logf:          func(format string, args ...any) { log.Printf(format, args...) },
	})
	if err != nil {
		log.Printf("dtexlcoord: %v", err)
		return 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- ha.Run(ctx) }()

	// Size/age-bounded store GC: entries from older sweeps (different
	// scale, seed, or code version) age out, but the live sweep's own
	// entries are pinned so a resume scan or render never loses a result
	// the fleet already paid for. One sweep up front reclaims space
	// before workers start writing; a background ticker keeps a
	// long-running coordinator bounded.
	if *maxBytes > 0 || *maxAge > 0 {
		pol := sim.GCPolicy{MaxBytes: *maxBytes, MaxAge: *maxAge}
		pins, err := sim.SweepEntryNames(opt)
		if err != nil {
			log.Printf("dtexlcoord: store gc pins: %v", err)
			return 1
		}
		gc := func() {
			st, err := store.GC(pol, pins)
			if err != nil {
				log.Printf("dtexlcoord: store gc: %v", err)
				return
			}
			if st.Evicted > 0 {
				log.Printf("dtexlcoord: store gc: evicted %d/%d entries (%d bytes freed, %d kept, %d pinned)",
					st.Evicted, st.Scanned, st.BytesFreed, st.BytesKept, st.Pinned)
			}
		}
		gc()
		ticker := time.NewTicker(time.Minute)
		defer ticker.Stop()
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case <-ticker.C:
					gc()
				case <-done:
					return
				}
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("dtexlcoord: %v", err)
		return 1
	}
	// Mutations demand the bearer token (when configured); stats GETs and
	// the health probe stay open so dashboards and load balancers work
	// without secrets.
	handler := netauth.Middleware(token, netauth.Or(netauth.OpenPaths("/healthz"), netauth.OpenReadOnly), ha.Handler())
	httpSrv := &http.Server{Handler: handler, TLSConfig: tlsCfg}
	serveErr := make(chan error, 1)
	go func() { serveErr <- netauth.Serve(httpSrv, ln, tlsCfg) }()
	role := "primary"
	if *standby {
		role = "standby"
	}
	log.Printf("dtexlcoord: %s %q on %s://%s (scale %d, heartbeat %v, retry budget %d, auth %v)",
		role, node, netauth.URLScheme(tlsCfg), ln.Addr(), *scale, *heartbeat, *budget, token != "")

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	settled := false
	select {
	case <-ha.Done():
		settled = true
		if coord := ha.Coordinator(); coord != nil {
			st := coord.Stats()
			log.Printf("dtexlcoord: suite settled (epoch %d): %d done, %d quarantined, %d reassigned, %d stolen, %d late, %d rejected",
				st.Epoch, st.Done, st.Quarantined, st.Reassigned, st.Stolen, st.LateResults, st.RejectedResults)
		}
	case sig := <-sigCh:
		log.Printf("dtexlcoord: %v: shutting down", sig)
	case err := <-serveErr:
		log.Printf("dtexlcoord: serve: %v", err)
		return 1
	case err := <-runErr:
		log.Printf("dtexlcoord: ha: %v", err)
		return 1
	}

	code := 0
	if settled && *exps != "" {
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				log.Printf("dtexlcoord: %v", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if err := ha.Coordinator().RenderExperiments(strings.Split(*exps, ","), w); err != nil {
			log.Printf("dtexlcoord: %v", err)
			code = 1
		} else if *out != "" {
			log.Printf("dtexlcoord: rendered %s to %s", *exps, *out)
		}
	}
	if settled && !*exitDone && code == 0 {
		// Stay up for stats scraping until signalled.
		log.Printf("dtexlcoord: suite done; serving stats until signalled (use -exit-when-done to exit)")
		select {
		case sig := <-sigCh:
			log.Printf("dtexlcoord: %v: shutting down", sig)
		case err := <-serveErr:
			log.Printf("dtexlcoord: serve: %v", err)
			code = 1
		}
	}

	// Stop the HA loop, which renews the epoch claim, then drain the
	// server.
	cancel()
	select {
	case <-runErr:
	case <-time.After(5 * time.Second):
	}
	shutdownCtx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
	}
	if !settled && code == 0 {
		// Interrupted mid-sweep: completed cells are durable in the store,
		// so a restarted or standby coordinator resumes where this one
		// stopped.
		if coord := ha.Coordinator(); coord != nil {
			st := coord.Stats()
			fmt.Fprintf(os.Stderr, "dtexlcoord: interrupted with %d/%d cells done (resumable from the store)\n", st.Done, st.Cells)
		}
	}
	return code
}
