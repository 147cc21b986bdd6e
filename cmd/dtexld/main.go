// Command dtexld serves simulations over HTTP, hardened for overload:
// admission control with a bounded queue, per-request deadlines that
// reach the executor watchdogs, fidelity degradation instead of load
// shedding for requests that opt in, request coalescing (concurrent
// identical requests join one in-flight simulation that survives any
// single client's cancellation — see DESIGN.md §11), and SIGTERM
// draining. With -store every completed cell is recorded as it
// finishes, so a restarted server over the same directory answers it
// from the store.
//
// With -coord it instead runs as a fleet worker (DESIGN.md §12): it
// registers with a dtexlcoord coordinator, heartbeats, pulls leased
// suite cells, computes them through the full memo stack (L1 memo →
// shared store → compute), and reports checksummed results. The HTTP
// server still runs for health probes; /workerz reports worker state.
//
// Usage:
//
//	dtexld -addr :8095 -scale 4 -store ckpt/
//	curl -XPOST localhost:8095/v1/simulate \
//	     -d '{"benchmark":"TRu","policy":"DTexL","degradable":true}'
//	curl localhost:8095/v1/experiments/fig16
//
//	dtexld -coord http://127.0.0.1:8100 -worker-name w1 -store shared/
//	dtexld -coords https://c1:8100,https://c2:8101 -tls-ca tls.crt \
//	       -auth-token-file tok -store shared/     # HA fleet over TLS
//
// API (see README "Serving"):
//
//	POST /v1/simulate           {benchmark, policy, scale?, frames?, degradable?, timeout_ms?}
//	GET  /v1/experiments/{name} rendered experiment table (?csv=1)
//	GET  /healthz               liveness
//	GET  /readyz                readiness + admission stats (503 while draining)
//	GET  /workerz               fleet worker state (404 unless -coord)
//
// Exit codes: 0 = clean start-to-drain lifecycle (including SIGTERM
// under load, provided in-flight work finishes inside -grace), or a
// fleet worker that ran its suite to completion or was signalled; 1 =
// fatal setup error, a drain that had to be aborted, or a worker that
// lost its coordinator past the transport retry budget.
package main

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"dtexl/internal/fleet"
	"dtexl/internal/netauth"
	"dtexl/internal/serve"
	"dtexl/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:8095", "listen address")
		scale    = flag.Int("scale", 4, "full-fidelity resolution divisor (1 = the paper's 1960x768)")
		degScale = flag.Int("degraded-scale", 0, "overload fallback divisor for degradable requests (0 = 2x -scale)")
		seed     = flag.Uint64("seed", 1, "scene generator seed")
		conc     = flag.Int("concurrency", 0, "full-fidelity slots (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "bounded waiting room beyond the slots (0 = 2x concurrency)")
		cellBudg = flag.Duration("cell-timeout", 2*time.Minute, "per-simulation wall-clock budget; also the Retry-After unit")
		grace    = flag.Duration("grace", 30*time.Second, "drain budget after SIGTERM before in-flight executors are aborted")
		storeDir = flag.String("store", "", "content-addressed result store directory: completed cells are recorded there, and a restarted server or any process sharing it serves them without recompute")
		chaosStr = flag.String("chaos", "", "fault injection spec bench/policy/mode (mode: panic, error, stall, crash; testing only)")
		verbose  = flag.Bool("v", false, "log per-event lines")

		// Fleet worker mode (DESIGN.md §12).
		coord     = flag.String("coord", "", "coordinator base URL; when set, run as a fleet worker instead of a standalone server")
		coords    = flag.String("coords", "", "comma-separated ordered coordinator endpoints for HA fleets; the worker rotates on failure (may combine with -coord, which goes first)")
		name      = flag.String("worker-name", "", "worker label in coordinator stats (default: host:pid)")
		partAfter = flag.Int("partition-after", 0, "chaos: go silent after this many completed cells (0 = off)")
		partFor   = flag.Duration("partition-for", 5*time.Second, "chaos: how long an injected partition lasts")
	)
	var auth netauth.Flags
	auth.Register(flag.CommandLine)
	flag.Parse()

	token, err := auth.Token()
	if err != nil {
		log.Printf("dtexld: %v", err)
		return 1
	}
	tlsCfg, err := auth.ServerTLS()
	if err != nil {
		log.Printf("dtexld: %v", err)
		return 1
	}

	logf := func(format string, args ...any) { log.Printf(format, args...) }
	if !*verbose {
		logf = func(format string, args ...any) {}
	}

	cfg := serve.Config{
		Scale:         *scale,
		DegradedScale: *degScale,
		Seed:          *seed,
		Concurrency:   *conc,
		QueueDepth:    *queue,
		CellBudget:    *cellBudg,
		AuthToken:     token,
		Logf:          logf,
	}
	if *chaosStr != "" {
		chaos, err := sim.ParseChaos(*chaosStr)
		if err != nil {
			log.Printf("dtexld: %v", err)
			return 1
		}
		cfg.Chaos = chaos
		log.Printf("dtexld: fault injection active: %s", *chaosStr)
	}
	if *storeDir != "" {
		st, err := sim.OpenStore(*storeDir)
		if err != nil {
			log.Printf("dtexld: %v", err)
			return 1
		}
		st.Logf = func(format string, args ...any) { log.Printf(format, args...) }
		cfg.Store = st
		n, _ := st.Len()
		log.Printf("dtexld: store open under %s, %d entry(ies)", *storeDir, n)
	}

	if *coord != "" || *coords != "" {
		client, err := auth.Client(5 * time.Minute)
		if err != nil {
			log.Printf("dtexld: %v", err)
			return 1
		}
		var endpoints []string
		if *coords != "" {
			endpoints = strings.Split(*coords, ",")
		}
		return runWorker(cfg, tlsCfg, client, *addr, *coord, endpoints, *name, *partAfter, *partFor)
	}

	s := serve.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler(), TLSConfig: tlsCfg}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("dtexld: %v", err)
		return 1
	}
	log.Printf("dtexld: serving on %s://%s (scale %d, %d slots, queue %d, cell budget %v, auth %v)",
		netauth.URLScheme(tlsCfg), ln.Addr(), *scale, effectiveConc(*conc), *queue, *cellBudg, token != "")

	serveErr := make(chan error, 1)
	go func() { serveErr <- netauth.Serve(httpSrv, ln, tlsCfg) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("dtexld: %v: draining (grace %v)", sig, *grace)
	case err := <-serveErr:
		log.Printf("dtexld: serve: %v", err)
		return 1
	}

	// Drain: readiness off, new work rejected, in-flight finishes within
	// the grace budget. With -store, completed cells are already fsync'd
	// there, so even an aborted drain loses nothing that finished.
	s.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	err = httpSrv.Shutdown(shutdownCtx)
	if err != nil {
		// Grace exhausted: abort in-flight executors via their watchdogs,
		// then force-close connections.
		s.Abort()
		forceCtx, fcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer fcancel()
		if err2 := httpSrv.Shutdown(forceCtx); err2 != nil {
			httpSrv.Close()
		}
		log.Printf("dtexld: drain aborted after grace budget: %v", err)
		return 1
	}
	if err := s.AwaitIdle(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		s.Abort()
		log.Printf("dtexld: in-flight work outlived the drain: %v", err)
		return 1
	}
	log.Printf("dtexld: drained cleanly")
	return 0
}

// runWorker joins the fleet at coord, keeping the HTTP server up for
// health probes (/healthz, /readyz, /workerz) while the fleet loop
// pulls and computes leased cells. The runner the worker builds from
// the coordinator's suite options layers the same memo stack as the
// serving path: L1 memo → shared store → compute.
func runWorker(cfg serve.Config, tlsCfg *tls.Config, client *http.Client, addr, coord string, coords []string, name string, partAfter int, partFor time.Duration) int {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	w := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator:  coord,
		Coordinators: coords,
		Client:       client,
		Name:         name,
		NewRunner: func(opt sim.Options) *sim.Runner {
			r := sim.NewRunner(opt)
			r.Store = cfg.Store
			r.Chaos = cfg.Chaos
			r.RunTimeout = cfg.CellBudget
			r.Progress = func(line string) { cfg.Logf("dtexld: %s", line) }
			return r
		},
		PartitionAfter: partAfter,
		PartitionFor:   partFor,
		Logf:           func(format string, args ...any) { log.Printf(format, args...) },
	})
	cfg.FleetStatus = func() any { return w.Status() }

	s := serve.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("dtexld: %v", err)
		return 1
	}
	httpSrv := &http.Server{Handler: s.Handler(), TLSConfig: tlsCfg}
	go netauth.Serve(httpSrv, ln, tlsCfg)
	targets := coords
	if coord != "" {
		targets = append([]string{coord}, coords...)
	}
	log.Printf("dtexld: worker %q joining fleet at %s (health on %s)", name, strings.Join(targets, ","), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runErr := w.Run(ctx)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
	}
	switch {
	case runErr == nil:
		log.Printf("dtexld: worker %q: suite complete after %d cell(s)", name, w.Status().Completed)
		return 0
	case errors.Is(runErr, context.Canceled):
		// Signalled mid-suite: clean exit; the coordinator reassigns any
		// lease we held once the heartbeat lapses.
		log.Printf("dtexld: worker %q: signalled; outstanding leases will be reassigned", name)
		return 0
	default:
		log.Printf("dtexld: worker %q: %v", name, runErr)
		return 1
	}
}

func effectiveConc(c int) int {
	if c < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return c
}
