package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dtexl/internal/sim"
)

// ErrHalted is returned by Run after Halt: the node stopped abruptly,
// with no final snapshot and no lease handoff.
var ErrHalted = errors.New("fleet: ha node halted")

// EpochLeaseName is the store-directory file through which coordinators
// arbitrate who is primary. Like the snapshot log it does not end in
// .json, so store GC and corruption tooling never touch it.
const EpochLeaseName = "coordinator.lease"

// Defaults for HAConfig.
const (
	DefaultLeaseInterval    = 500 * time.Millisecond
	DefaultSnapshotInterval = 1 * time.Second
)

// epochLease is the on-disk primary claim: who holds which epoch, and
// when they last proved liveness. Written atomically; read by standbys.
type epochLease struct {
	Epoch           uint64 `json:"epoch"`
	Node            string `json:"node"`
	RenewedUnixNano int64  `json:"renewed_unix_nano"`
}

func epochLeasePath(dir string) string { return filepath.Join(dir, EpochLeaseName) }

// readEpochLease returns the current lease record, or nil when the file
// is missing or unreadable (a torn write is impossible — writes are
// atomic — but a corrupt file is treated as absent, which only ever
// delays takeover by one claim round).
func readEpochLease(dir string) *epochLease {
	b, err := os.ReadFile(epochLeasePath(dir))
	if err != nil {
		return nil
	}
	var l epochLease
	if err := json.Unmarshal(b, &l); err != nil || l.Epoch == 0 {
		return nil
	}
	return &l
}

func writeEpochLease(dir string, l epochLease) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	return sim.WriteFileAtomic(epochLeasePath(dir), b)
}

// claimEpoch decides epoch ownership races: creating the claim file for
// epoch n is exclusive (O_EXCL), so exactly one contender wins each
// epoch number. Claim files are tiny and bounded by the number of
// failovers, so they are left in place as an audit trail.
func claimEpoch(dir string, epoch uint64, node string) bool {
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("coordinator.claim.%d", epoch)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	fmt.Fprintln(f, node)
	f.Sync()
	f.Close()
	return true
}

// HAConfig configures one coordinator node in a highly-available pair
// (or larger set). All nodes share the store directory; the epoch lease
// and snapshot log live there.
type HAConfig struct {
	// Coordinator is the base coordinator configuration. Epoch and Resume
	// are owned by the HA layer and overwritten on activation.
	Coordinator CoordinatorConfig
	// NodeID names this process in the epoch lease and stats.
	NodeID string
	// Standby: never create the initial epoch lease — only seize a stale
	// one. A primary (Standby=false) claims epoch 1 when no lease exists.
	Standby bool
	// LeaseInterval is the primary's renewal cadence and the standby's
	// poll cadence; default 500ms.
	LeaseInterval time.Duration
	// LeaseTimeout is the staleness bound past which a standby seizes the
	// epoch; default 4×LeaseInterval. Must comfortably exceed the renewal
	// cadence plus worst-case fsync stalls.
	LeaseTimeout time.Duration
	// SnapshotInterval is the primary's snapshot cadence; default 1s. A
	// final snapshot is also taken when the suite completes.
	SnapshotInterval time.Duration
	// Logf, when non-nil, receives one line per HA event.
	Logf func(format string, args ...any)

	now func() time.Time // test hook; time.Now when nil
}

func (c HAConfig) withDefaults() HAConfig {
	if c.LeaseInterval <= 0 {
		c.LeaseInterval = DefaultLeaseInterval
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 4 * c.LeaseInterval
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = DefaultSnapshotInterval
	}
	if c.NodeID == "" {
		c.NodeID = "coord"
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// HA wraps a coordinator slot behind the epoch-lease election: the node
// is either active (owns the current epoch, serves the fleet protocol)
// or standby (returns 503 and watches the lease). Run drives the state
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

// Halt stops the node as a crash would: lease renewals, snapshots and
// serving all cease immediately, with no final snapshot and no handoff.
// The in-process stand-in for SIGKILL in failover tests and chaos
// drills; Run returns ErrHalted.
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

// Run drives the node: watch the epoch lease, take over when it is
// absent (primary only) or stale, serve the epoch until fenced or ctx
// ends, then return to watching. Returns ctx.Err() on cancellation.
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
		l := readEpochLease(dir)
		switch {
		case l == nil:
			// No lease yet. A designated standby never bootstraps the
			// deployment; it waits for the primary's first claim.
			if !h.cfg.Standby && claimEpoch(dir, 1, h.cfg.NodeID) {
				return 1, nil
			}
		case h.cfg.now().Sub(time.Unix(0, l.RenewedUnixNano)) > h.cfg.LeaseTimeout:
			h.cfg.Logf("fleet: ha %s: epoch %d lease from %s is stale; attempting takeover of epoch %d",
				h.cfg.NodeID, l.Epoch, l.Node, l.Epoch+1)
			if claimEpoch(dir, l.Epoch+1, h.cfg.NodeID) {
				return l.Epoch + 1, nil
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

// serveEpoch activates the coordinator for one epoch: replay the newest
// valid snapshot plus the store scan, then renew the lease and snapshot
// on a cadence until fenced (returns nil) or ctx ends (returns
// ctx.Err()).
func (h *HA) serveEpoch(ctx context.Context, dir string, epoch uint64) error {
	if err := writeEpochLease(dir, epochLease{Epoch: epoch, Node: h.cfg.NodeID, RenewedUnixNano: h.cfg.now().UnixNano()}); err != nil {
		return fmt.Errorf("fleet: ha %s: epoch lease write: %w", h.cfg.NodeID, err)
	}
	snap, err := LoadSnapshot(dir)
	if err != nil {
		h.cfg.Logf("fleet: ha %s: snapshot load: %v (continuing from store alone)", h.cfg.NodeID, err)
	}
	ccfg := h.cfg.Coordinator
	ccfg.Epoch = epoch
	ccfg.NodeID = h.cfg.NodeID
	ccfg.Resume = snap
	coord, err := NewCoordinator(ccfg)
	if err != nil {
		return fmt.Errorf("fleet: ha %s: activate epoch %d: %w", h.cfg.NodeID, epoch, err)
	}
	h.setActive(coord, epoch)
	h.cfg.Logf("fleet: ha %s: active for epoch %d (snapshot replayed: %v)", h.cfg.NodeID, epoch, snap != nil)

	renew := time.NewTicker(h.cfg.LeaseInterval)
	defer renew.Stop()
	snapT := time.NewTicker(h.cfg.SnapshotInterval)
	defer snapT.Stop()
	doneCh := coord.Done()
	for {
		select {
		case <-ctx.Done():
			h.snapshot(dir, coord)
			return ctx.Err()
		case <-h.halt:
			h.setActive(nil, 0) // crash: stop serving mid-flight, snapshot nothing
			return ErrHalted
		case <-renew.C:
			if l := readEpochLease(dir); l != nil && l.Epoch > epoch {
				return nil // fenced by a newer epoch; stop serving immediately
			}
			if err := writeEpochLease(dir, epochLease{Epoch: epoch, Node: h.cfg.NodeID, RenewedUnixNano: h.cfg.now().UnixNano()}); err != nil {
				h.cfg.Logf("fleet: ha %s: epoch lease renew: %v", h.cfg.NodeID, err)
			}
		case <-snapT.C:
			h.snapshot(dir, coord)
		case <-doneCh:
			h.snapshot(dir, coord)
			h.doneOnce.Do(func() { close(h.done) })
			doneCh = nil // keep serving late completions and stats
		}
	}
}

func (h *HA) snapshot(dir string, coord *Coordinator) {
	if err := AppendSnapshot(dir, coord.Snapshot()); err != nil {
		h.cfg.Logf("fleet: ha %s: snapshot append: %v", h.cfg.NodeID, err)
	}
}
