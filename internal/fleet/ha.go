package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dtexl/internal/durable"
)

// ErrHalted is returned by Run after Halt: the node stopped abruptly,
// with no handoff.
var ErrHalted = errors.New("fleet: ha node halted")

// DefaultLeaseInterval is HAConfig's default LeaseInterval.
const DefaultLeaseInterval = 500 * time.Millisecond

// claimPrefix names epoch N's claim file, claimPrefix+N, in the shared
// store directory. It does not end in .json, so the store's Len and GC
// never touch it. Creating the file decides the epoch (durable.Claim),
// and the winner's renewals fill it. Claim files are tiny and one per
// failover, so they stay as an audit trail.
const claimPrefix = "coordinator.claim."

// epochClaim is the record in a claim file: the node holding the epoch
// and when it last proved liveness. The holder renews it in place.
type epochClaim struct {
	Node            string `json:"node"`
	RenewedUnixNano int64  `json:"renewed_unix_nano"`
}

func claimPath(dir string, epoch uint64) string {
	return filepath.Join(dir, claimPrefix+strconv.FormatUint(epoch, 10))
}

// latestClaim returns the current epoch (the highest N with a claim
// file, 0 if none) and its claim. An unreadable claim (torn, of an older
// version, or not yet renewed) counts as renewed at its modification
// time: it goes stale like any other, and one being written is not
// stolen.
func latestClaim(dir string) (epoch uint64, c epochClaim, err error) {
	ents, err := os.ReadDir(dir)
	for _, de := range ents {
		if s, ok := strings.CutPrefix(de.Name(), claimPrefix); ok {
			if n, err := strconv.ParseUint(s, 10, 64); err == nil && n > epoch {
				epoch = n
			}
		}
	}
	if epoch == 0 || err != nil {
		return 0, c, err
	}
	path := claimPath(dir, epoch)
	if _, err := durable.ReadRecord(path, &c); err == nil {
		return epoch, c, nil
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, c, err
	}
	return epoch, epochClaim{RenewedUnixNano: fi.ModTime().UnixNano()}, nil
}

// HAConfig configures one coordinator node in a highly-available pair
// (or larger set). All nodes share the store directory, and the epoch
// claims live there beside the results: the store and the claims are
// the whole durable state, and a new epoch's coordinator is built from
// the store scan exactly as a fresh one is.
type HAConfig struct {
	// Coordinator is the base coordinator configuration. Epoch and NodeID
	// are owned by the HA layer and overwritten on activation.
	Coordinator CoordinatorConfig
	// NodeID names this process in its epoch claim and stats.
	NodeID string
	// Standby: never claim the first epoch — only seize a stale one. A
	// primary (Standby=false) claims epoch 1 when no claim exists.
	Standby bool
	// LeaseInterval is the primary's renewal cadence and the standby's
	// poll cadence; default 500ms.
	LeaseInterval time.Duration
	// LeaseTimeout is the staleness bound past which a standby seizes the
	// epoch; default 4×LeaseInterval. Must comfortably exceed the renewal
	// cadence plus worst-case fsync stalls.
	LeaseTimeout time.Duration
	// Logf, when non-nil, receives one line per HA event.
	Logf func(format string, args ...any)
}

func (c HAConfig) withDefaults() HAConfig {
	if c.LeaseInterval <= 0 {
		c.LeaseInterval = DefaultLeaseInterval
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 4 * c.LeaseInterval
	}
	if c.NodeID == "" {
		c.NodeID = "coord"
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// HA wraps a coordinator slot behind the epoch-claim election: the node
// is either active (owns the current epoch, serves the fleet protocol)
// or standby (returns 503 and watches the claims). Run drives the state
// machine; Handler can be mounted immediately.
type HA struct {
	cfg HAConfig

	mu      sync.Mutex
	coord   *Coordinator
	handler http.Handler
	epoch   uint64

	done     chan struct{}
	doneOnce sync.Once
	halt     chan struct{}
	haltOnce sync.Once
}

// NewHA validates the configuration; Run does the work.
func NewHA(cfg HAConfig) (*HA, error) {
	cfg = cfg.withDefaults()
	if cfg.Coordinator.Store == nil {
		return nil, fmt.Errorf("fleet: HA needs a shared store")
	}
	return &HA{cfg: cfg, done: make(chan struct{}), halt: make(chan struct{})}, nil
}

// Halt stops the node as a crash would: claim renewals and serving
// cease immediately, with no handoff. The in-process stand-in for
// SIGKILL in failover tests and chaos drills; Run returns ErrHalted.
func (h *HA) Halt() {
	h.haltOnce.Do(func() { close(h.halt) })
}

// Done is closed once this node, while active, sees every cell settle.
func (h *HA) Done() <-chan struct{} { return h.done }

// Coordinator returns the active coordinator, or nil while standby.
func (h *HA) Coordinator() *Coordinator {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.coord
}

// Epoch returns the epoch this node currently holds (0 while standby).
func (h *HA) Epoch() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.epoch
}

// Handler serves the fleet protocol when active and 503 (with
// Retry-After) when standby, so workers rotate to the live coordinator.
// GET /healthz always answers — load balancer probes must not require
// the node to be primary.
func (h *HA) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		handler := h.handler
		h.mu.Unlock()
		if handler == nil {
			if r.Method == http.MethodGet && r.URL.Path == "/healthz" {
				w.WriteHeader(http.StatusOK)
				fmt.Fprintln(w, "ok (standby)")
				return
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, "standby coordinator; not serving this epoch", http.StatusServiceUnavailable)
			return
		}
		handler.ServeHTTP(w, r)
	})
}

func (h *HA) setActive(coord *Coordinator, epoch uint64) {
	h.mu.Lock()
	h.coord = coord
	h.epoch = epoch
	if coord != nil {
		h.handler = coord.Handler()
	} else {
		h.handler = nil
	}
	h.mu.Unlock()
}

// Run drives the node: watch the epoch claims, take over when there is
// none (primary only) or the newest is stale, serve the epoch until
// fenced or ctx ends, then return to watching. Returns ctx.Err() on
// cancellation.
func (h *HA) Run(ctx context.Context) error {
	dir := h.cfg.Coordinator.Store.Dir()
	for {
		epoch, err := h.watch(ctx, dir)
		if err != nil {
			return err
		}
		if err := h.serveEpoch(ctx, dir, epoch); err != nil {
			return err
		}
		// Fenced: drop the coordinator and go back to watching.
		h.setActive(nil, 0)
		h.cfg.Logf("fleet: ha %s: fenced out of epoch %d; returning to standby", h.cfg.NodeID, epoch)
	}
}

// watch blocks until this node wins an epoch claim, returning the epoch
// it now owns.
func (h *HA) watch(ctx context.Context, dir string) (uint64, error) {
	for {
		epoch, c, err := latestClaim(dir)
		switch {
		case err != nil:
			h.cfg.Logf("fleet: ha %s: reading epoch claims: %v", h.cfg.NodeID, err)
		case epoch == 0:
			// No claim yet. A designated standby never bootstraps the
			// deployment; it waits for the primary's first claim.
			if !h.cfg.Standby && durable.Claim(claimPath(dir, 1)) == nil {
				return 1, nil
			}
		case time.Since(time.Unix(0, c.RenewedUnixNano)) > h.cfg.LeaseTimeout:
			h.cfg.Logf("fleet: ha %s: epoch %d claim of %q is stale; attempting takeover of epoch %d",
				h.cfg.NodeID, epoch, c.Node, epoch+1)
			if durable.Claim(claimPath(dir, epoch+1)) == nil {
				return epoch + 1, nil
			}
			// Lost the claim race; the winner will renew shortly.
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-h.halt:
			return 0, ErrHalted
		case <-time.After(h.cfg.LeaseInterval):
		}
	}
}

// renewClaim rewrites this node's claim on epoch as one durable record
// stamped now.
func (h *HA) renewClaim(dir string, epoch uint64) error {
	c := epochClaim{Node: h.cfg.NodeID, RenewedUnixNano: time.Now().UnixNano()}
	return durable.WriteRecord(claimPath(dir, epoch), nil, c)
}

// serveEpoch activates a coordinator for one epoch, then renews the
// claim on a cadence until fenced (returns nil) or ctx ends (returns
// ctx.Err()). Retry budgets, quarantine verdicts and counters start
// afresh each epoch; a cell that was running when the previous holder
// died is granted again, and its first holder's report lands as a late
// result.
func (h *HA) serveEpoch(ctx context.Context, dir string, epoch uint64) error {
	if err := h.renewClaim(dir, epoch); err != nil {
		return fmt.Errorf("fleet: ha %s: epoch claim write: %w", h.cfg.NodeID, err)
	}
	ccfg := h.cfg.Coordinator
	ccfg.Epoch = epoch
	ccfg.NodeID = h.cfg.NodeID
	coord, err := NewCoordinator(ccfg)
	if err != nil {
		return fmt.Errorf("fleet: ha %s: activate epoch %d: %w", h.cfg.NodeID, epoch, err)
	}
	h.setActive(coord, epoch)
	h.cfg.Logf("fleet: ha %s: active for epoch %d", h.cfg.NodeID, epoch)

	renew := time.NewTicker(h.cfg.LeaseInterval)
	defer renew.Stop()
	doneCh := coord.Done()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-h.halt:
			h.setActive(nil, 0) // crash: stop serving mid-flight
			return ErrHalted
		case <-renew.C:
			if _, err := os.Stat(claimPath(dir, epoch+1)); err == nil {
				return nil // fenced by the successor's claim; stop serving immediately
			}
			if err := h.renewClaim(dir, epoch); err != nil {
				h.cfg.Logf("fleet: ha %s: epoch claim renew: %v", h.cfg.NodeID, err)
			}
		case <-doneCh:
			h.doneOnce.Do(func() { close(h.done) })
			doneCh = nil // keep serving late completions and stats
		}
	}
}
