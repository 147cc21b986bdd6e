package core

import (
	"testing"

	"dtexl/internal/pipeline"
	"dtexl/internal/sched"
	"dtexl/internal/tileorder"
)

func TestBaselineMatchesPaper(t *testing.T) {
	b := Baseline()
	if b.Grouping != sched.FGXShift2 || b.TileOrder != tileorder.ZOrder ||
		b.Assignment != sched.ConstAssign || b.Decoupled {
		t.Errorf("baseline = %+v", b)
	}
}

func TestDTexLMatchesPaper(t *testing.T) {
	d := DTexL()
	if d.Grouping != sched.CGSquare {
		t.Error("DTexL grouping is not CG-square")
	}
	if d.TileOrder != tileorder.HilbertRect {
		t.Error("DTexL tile order is not the rectangle-adapted Hilbert")
	}
	if d.Assignment != sched.Flp2 {
		t.Error("DTexL assignment is not flp2")
	}
	if !d.Decoupled {
		t.Error("DTexL is not decoupled")
	}
}

func TestBaselineDecoupledOnlyTogglesBarrier(t *testing.T) {
	b, d := Baseline(), BaselineDecoupled()
	if d.Grouping != b.Grouping || d.TileOrder != b.TileOrder || d.Assignment != b.Assignment {
		t.Error("baseline-decoupled changed more than the barrier")
	}
	if !d.Decoupled {
		t.Error("baseline-decoupled is coupled")
	}
}

func TestFig8MappingsShape(t *testing.T) {
	ms := Fig8Mappings()
	if len(ms) != 8 {
		t.Fatalf("%d mappings, want 8", len(ms))
	}
	for _, m := range ms {
		if !m.Decoupled {
			t.Errorf("%s not decoupled", m.Name)
		}
		switch m.TileOrder {
		case tileorder.SOrder:
			if m.Grouping != sched.CGYRect {
				t.Errorf("%s: S-order mappings use CG-yrect in Fig. 8", m.Name)
			}
		default:
			if m.Grouping != sched.CGSquare {
				t.Errorf("%s: grouping = %v", m.Name, m.Grouping)
			}
		}
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if seen[m.Name] {
			t.Errorf("duplicate mapping name %s", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestGroupingPoliciesCoverFig6(t *testing.T) {
	ps := GroupingPolicies()
	if len(ps) != len(sched.Groupings()) {
		t.Fatalf("%d grouping policies", len(ps))
	}
	for _, p := range ps {
		if p.Decoupled || p.TileOrder != tileorder.ZOrder || p.Assignment != sched.ConstAssign {
			t.Errorf("%s: Fig. 11/12 exploration must be coupled, Z-order, const", p.Name)
		}
	}
}

func TestApply(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	DTexL().Apply(&cfg)
	if cfg.Grouping != sched.CGSquare || !cfg.Decoupled || cfg.TileOrder != tileorder.HilbertRect {
		t.Errorf("Apply failed: %+v", cfg)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("PolicyByName(%q) returned %q", name, p.Name)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestPolicyByNameAllocFree: the service resolves a policy on every
// request, so every name must round-trip through a table built once,
// without allocating.
func TestPolicyByNameAllocFree(t *testing.T) {
	want := []Policy{Baseline(), BaselineDecoupled(), DTexL()}
	want = append(append(want, Fig8Mappings()...), GroupingPolicies()...)
	names := PolicyNames()
	if len(names) != len(want) {
		t.Fatalf("%d policy names, want %d", len(names), len(want))
	}
	for i, p := range want {
		if names[i] != p.Name {
			t.Errorf("PolicyNames()[%d] = %q, want %q", i, names[i], p.Name)
		}
		if got, err := PolicyByName(p.Name); err != nil || got != p {
			t.Errorf("PolicyByName(%q) = %+v, %v; want %+v", p.Name, got, err, p)
		}
	}
	bad := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, name := range names {
			if p, err := PolicyByName(name); err != nil || p.Name != name {
				bad++
			}
		}
	})
	if bad != 0 || allocs != 0 {
		t.Errorf("%d failed lookups, %v allocations per %d lookups; want 0 and 0", bad, allocs, len(names))
	}
}

func TestApplyUpperBound(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	orig := cfg.Hierarchy.L1Tex.SizeBytes
	ApplyUpperBound(&cfg)
	if cfg.NumSC != 1 || cfg.Hierarchy.NumSC != 1 {
		t.Error("upper bound did not reduce to one SC")
	}
	if cfg.Hierarchy.L1Tex.SizeBytes != 4*orig {
		t.Error("upper bound L1 not 4x")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("upper-bound config invalid: %v", err)
	}
}
