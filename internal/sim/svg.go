package sim

import (
	"fmt"
	"io"
	"strings"

	"dtexl/internal/plot"
)

// BarChart converts a result table into a plottable grouped bar chart.
// Normalized and speedup metrics get a dashed reference line at 1.
func (t *Table) BarChart() *plot.BarChart {
	c := &plot.BarChart{
		Title:      fmt.Sprintf("%s: %s", t.ID, t.Title),
		YLabel:     t.Metric,
		Categories: t.Cols,
	}
	if strings.Contains(t.Metric, "normalized") || strings.Contains(t.Metric, "speedup") ||
		strings.Contains(t.Metric, "ratio") {
		c.RefLine = 1
	}
	for _, r := range t.Rows {
		c.Series = append(c.Series, plot.Series{Name: r.Name, Values: r.Values})
	}
	return c
}

// BoxChart converts violin summaries into a plottable box chart. Boxes
// are colored by configuration.
func (t *ViolinTable) BoxChart() *plot.BoxChart {
	c := &plot.BoxChart{
		Title:  fmt.Sprintf("%s: %s", t.ID, t.Title),
		YLabel: t.Metric,
	}
	groups := map[string]int{}
	for _, r := range t.Rows {
		g, ok := groups[r.Config]
		if !ok {
			g = len(groups)
			groups[r.Config] = g
		}
		c.Boxes = append(c.Boxes, plot.BoxEntry{
			Label:  r.Bench + "/" + r.Config,
			Min:    r.Summary.Min,
			Q1:     r.Summary.Q1,
			Median: r.Summary.Median,
			Q3:     r.Summary.Q3,
			Max:    r.Summary.Max,
			Mean:   r.Summary.Mean,
			Group:  g,
		})
	}
	return c
}

// RenderSVG runs one experiment and writes it as an SVG figure. The text
// tables (tab1, tab2) have no graphical form and are rejected.
func (r *Runner) RenderSVG(id string, w io.Writer) error {
	e, err := experimentByID(id)
	if err != nil {
		return err
	}
	switch {
	case e.text != nil:
		return fmt.Errorf("sim: %s is a text table with no SVG form", id)
	case e.violin != nil:
		t, err := r.Violin(id)
		if err != nil {
			return err
		}
		return t.BoxChart().WriteSVG(w)
	}
	t, err := r.Table(id)
	if err != nil {
		return err
	}
	return t.BarChart().WriteSVG(w)
}
