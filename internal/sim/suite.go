package sim

import (
	"context"
	"encoding/json"
	"fmt"

	"dtexl/internal/core"
	"dtexl/internal/pipeline"
	"dtexl/internal/tileorder"
)

// CellSpec names one simulation — a benchmark under a policy, optionally
// with ablated machine fields or on the immediate-mode machine — in a
// form that serializes over the fleet wire protocol and round-trips to
// the exact simulation an experiment reads. Policy is the figure-style
// label resolved by ResolvePolicy (including the suite's special labels
// "DTexL(HLB-flp2)" and "upper-bound").
type CellSpec struct {
	Bench  string `json:"bench"`
	Policy string `json:"policy"`
	// UpperBound applies the Fig. 16 single-SC rewrite after the policy.
	UpperBound bool `json:"upper_bound,omitempty"`
	// Override sets ablated machine fields after the policy.
	Override *Override `json:"override,omitempty"`
	// IMR runs the immediate-mode machine instead of the tile-based one.
	IMR bool `json:"imr,omitempty"`
}

// Override holds the machine fields the ablations vary. A zero field
// keeps the policy's machine (Table II); the enums are named by their
// String forms.
type Override struct {
	WarpSlots int    `json:"warp_slots,omitempty"`
	FIFODepth int    `json:"fifo_depth,omitempty"`
	TileSize  int    `json:"tile_size,omitempty"`
	L1KiB     int    `json:"l1_kib,omitempty"`
	LateZ     bool   `json:"late_z,omitempty"`
	Prefetch  bool   `json:"prefetch,omitempty"`
	NUCA      bool   `json:"nuca,omitempty"`
	WarpSched string `json:"warp_sched,omitempty"`
	TileOrder string `json:"tile_order,omitempty"`
}

// apply writes the overridden fields into cfg.
func (o *Override) apply(cfg *pipeline.Config) error {
	if o.WarpSlots < 0 || o.FIFODepth < 0 || o.TileSize < 0 || o.L1KiB < 0 {
		return fmt.Errorf("sim: negative override %+v", *o)
	}
	if o.WarpSlots > 0 {
		cfg.WarpSlots = o.WarpSlots
	}
	if o.FIFODepth > 0 {
		cfg.FIFODepth = o.FIFODepth
	}
	if o.TileSize > 0 {
		cfg.TileSize = o.TileSize
	}
	if o.L1KiB > 0 {
		cfg.Hierarchy.L1Tex.SizeBytes = o.L1KiB << 10
	}
	cfg.LateZ = cfg.LateZ || o.LateZ
	cfg.TexturePrefetch = cfg.TexturePrefetch || o.Prefetch
	cfg.Hierarchy.NUCA = cfg.Hierarchy.NUCA || o.NUCA
	if o.WarpSched != "" {
		p := pipeline.WarpSchedEarliest
		for p <= pipeline.WarpSchedYoungest && p.String() != o.WarpSched {
			p++
		}
		if p > pipeline.WarpSchedYoungest {
			return fmt.Errorf("sim: unknown warp scheduler %q", o.WarpSched)
		}
		cfg.WarpSched = p
	}
	if o.TileOrder != "" {
		known := false
		for _, k := range tileorder.Kinds() {
			if k.String() == o.TileOrder {
				cfg.TileOrder, known = k, true
			}
		}
		if !known {
			return fmt.Errorf("sim: unknown tile order %q", o.TileOrder)
		}
	}
	return nil
}

// ID is the cell's human-readable identity, unique within a plan:
// "bench/policy", then "/imr" and the override's JSON when set.
func (c CellSpec) ID() string {
	id := c.Bench + "/" + c.Policy
	if c.IMR {
		id += "/imr"
	}
	if c.Override != nil {
		b, _ := json.Marshal(c.Override)
		id += string(b)
	}
	return id
}

// upperBoundName is the label the suite gives the Fig. 16 single-SC
// bound cell.
const upperBoundName = "upper-bound"

// ResolvePolicy resolves the cell's policy label, covering the named
// core policies plus the suite's special labels. The boolean reports
// whether the upper-bound configuration rewrite applies.
func (c CellSpec) ResolvePolicy() (core.Policy, bool, error) {
	if c.UpperBound {
		if c.Policy != "" && c.Policy != upperBoundName {
			return core.Policy{}, false, fmt.Errorf("sim: upper-bound cell with policy %q", c.Policy)
		}
		p := core.Baseline()
		p.Name = upperBoundName
		return p, true, nil
	}
	if c.Policy == dtexlAsHLBFlp2().Name {
		return dtexlAsHLBFlp2(), false, nil
	}
	p, err := core.PolicyByName(c.Policy)
	return p, false, err
}

// SuiteCells enumerates every simulation the paper's figures need under
// the given options as serializable cells, in deterministic order. This
// is the unit of fleet sharding: a coordinator leases these cells to
// workers, and completing all of them lets every figure render without
// further simulation.
func SuiteCells(opt Options) []CellSpec {
	var cells []CellSpec
	seen := map[string]bool{}
	add := func(c CellSpec) {
		if id := c.ID(); !seen[id] {
			seen[id] = true
			cells = append(cells, c)
		}
	}
	pols := suitePolicyList()
	for _, alias := range opt.aliases() {
		for _, pol := range pols {
			add(CellSpec{Bench: alias, Policy: pol.Name})
		}
		add(CellSpec{Bench: alias, Policy: upperBoundName, UpperBound: true})
	}
	return cells
}

// suitePolicyList is every named policy the evaluation sweeps: the three
// reference points (with DTexL under its Fig. 17/18 label), the Fig. 6
// groupings and the Fig. 8 subtile mappings.
func suitePolicyList() []core.Policy {
	pols := []core.Policy{core.Baseline(), core.BaselineDecoupled(), dtexlAsHLBFlp2()}
	pols = append(pols, core.GroupingPolicies()...)
	pols = append(pols, core.Fig8Mappings()...)
	return pols
}

// cellKey resolves a cell under opt into its policy and its canonical
// memo/store key: the effective configuration, the same key RunOneCtx
// derives, so a result recorded against this key is found by the
// Runner's store lookup.
func cellKey(opt Options, c CellSpec) (simKey, core.Policy, error) {
	pol, ub, err := c.ResolvePolicy()
	if err != nil {
		return simKey{}, pol, err
	}
	key := newSimKey(opt, c.Bench, pol)
	if ub {
		core.ApplyUpperBound(&key.Cfg)
	}
	if c.Override != nil {
		if err := c.Override.apply(&key.Cfg); err != nil {
			return simKey{}, pol, err
		}
	}
	key.IMR = c.IMR
	return key, pol, nil
}

// RunCell executes one cell through the Runner's full memo stack (L1
// memo → store → compute) — the fleet worker's entry
// point and the experiments' read path. Results are bit-identical to
// the serial suite's.
func (r *Runner) RunCell(ctx context.Context, c CellSpec) (*RunResult, error) {
	key, pol, err := cellKey(r.Opt, c)
	if err != nil {
		return nil, err
	}
	return r.simulate(ctx, key, pol, false)
}
