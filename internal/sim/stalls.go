package sim

import (
	"dtexl/internal/core"
	"dtexl/internal/pipeline"
)

// stallCauses orders the five disjoint cycle attributions of
// pipeline.SCBreakdown for rendering. Every SC cycle of the raster
// phase lands in exactly one, so each policy's five rows sum to 100%.
var stallCauses = []struct {
	name string
	get  func(pipeline.SCBreakdown) int64
}{
	{"busy", func(b pipeline.SCBreakdown) int64 { return b.Busy }},
	{"tex-wait", func(b pipeline.SCBreakdown) int64 { return b.TexWait }},
	{"barrier-wait", func(b pipeline.SCBreakdown) int64 { return b.BarrierWait }},
	{"queue-empty", func(b pipeline.SCBreakdown) int64 { return b.QueueEmpty }},
	{"drain-wait", func(b pipeline.SCBreakdown) int64 { return b.DrainWait }},
}

// stalls renders the stall-cause breakdown behind Fig. 17's speedup: for
// the coupled baseline and DTexL, the share of total shader-core cycles
// (NumSC x raster cycles) attributed to each disjoint cause. The paper's
// §III-E claim — decoupling drives inter-tile idle "to near zero" — shows
// up as the baseline's barrier-wait share collapsing to structural zero
// under DTexL, partially reinvested as busy/tex-wait.
func stalls() *experiment {
	e := &experiment{id: "stalls",
		title:  "Stall breakdown: where SC cycles go (coupled baseline vs DTexL)",
		metric: "% of total SC raster-phase cycles, by disjoint cause"}
	for _, pol := range []core.Policy{core.Baseline(), dtexlAsHLBFlp2()} {
		for _, cause := range stallCauses {
			e.rows = append(e.rows, series{pol.Name + " " + cause.name, []CellSpec{cell(pol.Name)}, func(rs []*RunResult) float64 {
				m := rs[0].Metrics
				denom := float64(int64(m.Config.NumSC) * m.RasterCycles)
				if denom == 0 {
					return 0
				}
				return 100 * float64(cause.get(m.BreakdownTotals())) / denom
			}, false})
		}
	}
	return e
}
