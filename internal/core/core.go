// Package core defines DTexL itself: the named compositions of quad
// grouping, tile order, subtile assignment and barrier architecture that
// the paper proposes and evaluates. Everything else in this repository is
// substrate; this package is the paper's contribution expressed as
// configuration over that substrate.
package core

import (
	"fmt"
	"slices"

	"dtexl/internal/pipeline"
	"dtexl/internal/sched"
	"dtexl/internal/tileorder"
)

// Policy is a named scheduler + pipeline combination.
type Policy struct {
	// Name is the figure-style label (e.g. "HLB-flp2").
	Name string
	// Grouping maps quads to Subtiles (Fig. 6).
	Grouping sched.Grouping
	// TileOrder is the Tiling Engine's traversal (Fig. 7).
	TileOrder tileorder.Kind
	// Assignment re-maps Subtiles to SCs along the walk (Fig. 8).
	Assignment sched.Assignment
	// Decoupled selects the decoupled-barrier Raster Pipeline (§III-E).
	Decoupled bool
}

// Apply writes the policy into a pipeline configuration.
func (p Policy) Apply(cfg *pipeline.Config) {
	cfg.Grouping = p.Grouping
	cfg.TileOrder = p.TileOrder
	cfg.Assignment = p.Assignment
	cfg.Decoupled = p.Decoupled
}

// String returns the policy name.
func (p Policy) String() string { return p.Name }

// Baseline is the paper's baseline: the best load-balancing fine-grained
// grouping (FG-xshift2), Z-order tiles, constant assignment, coupled
// barriers (§V-A chooses it empirically; Table II fixes Z-order).
func Baseline() Policy {
	return Policy{
		Name:       "baseline",
		Grouping:   sched.FGXShift2,
		TileOrder:  tileorder.ZOrder,
		Assignment: sched.ConstAssign,
		Decoupled:  false,
	}
}

// BaselineDecoupled is FG-xshift2 with the decoupled-barrier pipeline —
// the second bar of Figs. 17 and 18, isolating the decoupling benefit
// from the scheduling benefit.
func BaselineDecoupled() Policy {
	p := Baseline()
	p.Name = "baseline-decoupled"
	p.Decoupled = true
	return p
}

// DTexL is the paper's proposal at its best configuration: CG-square
// grouping, the rectangle-adapted Hilbert tile order, the HLB-flp2
// subtile assignment (best performance among Fig. 8, §V-C2), and the
// decoupled-barrier pipeline.
func DTexL() Policy {
	return Policy{
		Name:       "DTexL",
		Grouping:   sched.CGSquare,
		TileOrder:  tileorder.HilbertRect,
		Assignment: sched.Flp2,
		Decoupled:  true,
	}
}

// Fig8Mappings returns the eight subtile mappings of Fig. 8 in figure
// order, all with decoupled barriers (they are evaluated as DTexL
// variants in Figs. 16-18). The S-order mappings use CG-yrect, the rest
// CG-square, matching the figure's caption.
func Fig8Mappings() []Policy {
	return []Policy{
		{Name: "Zorder-const", Grouping: sched.CGSquare, TileOrder: tileorder.ZOrder, Assignment: sched.ConstAssign, Decoupled: true},
		{Name: "Zorder-flp", Grouping: sched.CGSquare, TileOrder: tileorder.ZOrder, Assignment: sched.Flp1, Decoupled: true},
		{Name: "HLB-const", Grouping: sched.CGSquare, TileOrder: tileorder.HilbertRect, Assignment: sched.ConstAssign, Decoupled: true},
		{Name: "HLB-flp1", Grouping: sched.CGSquare, TileOrder: tileorder.HilbertRect, Assignment: sched.Flp1, Decoupled: true},
		{Name: "HLB-flp2", Grouping: sched.CGSquare, TileOrder: tileorder.HilbertRect, Assignment: sched.Flp2, Decoupled: true},
		{Name: "HLB-flp3", Grouping: sched.CGSquare, TileOrder: tileorder.HilbertRect, Assignment: sched.Flp3, Decoupled: true},
		{Name: "Sorder-const", Grouping: sched.CGYRect, TileOrder: tileorder.SOrder, Assignment: sched.ConstAssign, Decoupled: true},
		{Name: "Sorder-flp", Grouping: sched.CGYRect, TileOrder: tileorder.SOrder, Assignment: sched.Flp2, Decoupled: true},
	}
}

// GroupingPolicies returns the ten quad groupings of Fig. 6 as coupled
// policies with Z-order and constant assignment — the configuration of
// the Fig. 11/12 design-space exploration.
func GroupingPolicies() []Policy {
	gs := sched.Groupings()
	out := make([]Policy, len(gs))
	for i, g := range gs {
		out[i] = Policy{
			Name:       g.String(),
			Grouping:   g,
			TileOrder:  tileorder.ZOrder,
			Assignment: sched.ConstAssign,
			Decoupled:  false,
		}
	}
	return out
}

// policyNames lists every named policy and policyByName resolves each
// name. Both are built once, because PolicyByName runs on every served
// request.
var policyNames, policyByName = policyTable()

func policyTable() ([]string, map[string]Policy) {
	all := append([]Policy{Baseline(), BaselineDecoupled(), DTexL()}, Fig8Mappings()...)
	all = append(all, GroupingPolicies()...)
	names := make([]string, len(all))
	byName := make(map[string]Policy, len(all))
	for i, p := range all {
		names[i] = p.Name
		byName[p.Name] = p
	}
	return names, byName
}

// PolicyByName resolves a policy by its figure-style name, accepting the
// named proposals, the Fig. 8 mappings and the Fig. 6 groupings.
func PolicyByName(name string) (Policy, error) {
	if p, ok := policyByName[name]; ok {
		return p, nil
	}
	return Policy{}, fmt.Errorf("core: unknown policy %q", name)
}

// PolicyNames lists every named policy.
func PolicyNames() []string {
	return slices.Clone(policyNames)
}

// ApplyUpperBound rewrites cfg into the Fig. 16 upper-bound machine: a
// single shader core with a single texture L1 of 4x the capacity, which
// eliminates all inter-L1 block replication by construction.
func ApplyUpperBound(cfg *pipeline.Config) {
	cfg.NumSC = 1
	cfg.Hierarchy.NumSC = 1
	cfg.Hierarchy.L1Tex.SizeBytes *= sched.NumSubtiles
}
