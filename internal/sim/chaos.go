package sim

import (
	"fmt"
	"strings"
)

// ChaosMode selects which fault ChaosConfig injects into a matching
// simulation.
type ChaosMode int

const (
	// ChaosPanic panics inside the memoized simulation body, exercising
	// the recover/isolation path end to end.
	ChaosPanic ChaosMode = iota
	// ChaosError returns a plain error from the simulation.
	ChaosError
	// ChaosStall runs the real executor under pipeline.WithChaosStall, so
	// the run livelocks deterministically until the watchdog converts it
	// into a genuine *pipeline.StallError with a real state dump.
	ChaosStall
	// ChaosCrash kills the whole process (exit 137, the SIGKILL code) the
	// moment the matching cell starts computing — a worker dying mid-lease
	// with no cleanup, used by the fleet chaos harness.
	ChaosCrash
)

var chaosModeNames = map[string]ChaosMode{
	"panic": ChaosPanic,
	"error": ChaosError,
	"stall": ChaosStall,
	"crash": ChaosCrash,
}

// String returns the mode's CLI spelling.
func (m ChaosMode) String() string {
	for s, v := range chaosModeNames {
		if v == m {
			return s
		}
	}
	return fmt.Sprintf("sim.ChaosMode(%d)", int(m))
}

// ChaosConfig injects one fault into every simulation of the matching
// (benchmark, policy) cell. It exists for fault injection only — tests
// and CI use it to prove the isolation, degradation (-keep-going) and
// store resume paths work; it is never set in normal operation.
//
// Caveat: simulations are memoized on the *effective* machine
// configuration, not the policy label, so targeting a policy whose
// configuration another label shares (e.g. DTexL and HLB-flp2) faults
// the shared cell for both labels.
type ChaosConfig struct {
	// Bench and Policy select the cell; "" or "*" match everything.
	Bench  string
	Policy string
	Mode   ChaosMode
}

// matches reports whether the (benchmark, policy) cell is targeted. A
// nil receiver matches nothing, so call sites need no guard.
func (c *ChaosConfig) matches(alias, policy string) bool {
	if c == nil {
		return false
	}
	return matchToken(c.Bench, alias) && matchToken(c.Policy, policy)
}

func matchToken(pat, v string) bool {
	return pat == "" || pat == "*" || pat == v
}

// ParseChaos parses the CLI's -chaos spec: "bench/policy/mode", where
// bench and policy may be "*" (or empty) wildcards and mode is one of
// panic, error, stall — e.g. "TRu/DTexL/stall" or "*/Baseline/panic".
func ParseChaos(spec string) (*ChaosConfig, error) {
	parts := strings.Split(spec, "/")
	if len(parts) != 3 {
		return nil, fmt.Errorf("sim: chaos spec %q is not bench/policy/mode", spec)
	}
	mode, ok := chaosModeNames[parts[2]]
	if !ok {
		return nil, fmt.Errorf("sim: unknown chaos mode %q (want panic, error, stall or crash)", parts[2])
	}
	return &ChaosConfig{Bench: parts[0], Policy: parts[1], Mode: mode}, nil
}
