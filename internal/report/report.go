// Package report renders the experiment outputs: aligned text tables in
// the layout of the paper's Table 2, and CSV series for the Figure 4
// curves.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/design"
	"repro/internal/region"
	"repro/internal/task"
)

// Table renders a simple aligned text table. Cells are padded to the
// widest entry of their column; the first row is the header, separated
// by a rule.
func Table(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	widths := make([]int, 0)
	for _, r := range rows {
		for i, c := range r {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(rows[0])
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, r := range rows[1:] {
		writeRow(r)
	}
	return b.String()
}

// TaskTable renders the task set in the layout of the paper's Table 1.
func TaskTable(s task.Set) string {
	rows := [][]string{{"task", "mode", "channel", "C", "T", "D", "U"}}
	for _, t := range s {
		rows = append(rows, []string{
			t.Name, t.Mode.String(), fmt.Sprintf("%d", t.Channel),
			trim(t.C), trim(t.T), trim(t.D), fmt.Sprintf("%.3f", t.Utilization()),
		})
	}
	return Table(rows)
}

// SolutionTable renders one or more design solutions in the layout of
// the paper's Table 2: required utilisations first, then per-solution
// length and allocated-utilisation rows.
func SolutionTable(sols ...design.Solution) string {
	if len(sols) == 0 {
		return ""
	}
	req := sols[0].RequiredU
	rows := [][]string{
		{"", "P", "Otot", "FT", "FS", "NF", "slack"},
		{"req. util.", "", "", f3(req.FT), f3(req.FS), f3(req.NF), ""},
	}
	for _, s := range sols {
		label := s.Goal.String()
		rows = append(rows,
			[]string{label + " length", f3(s.Config.P), f3(s.Problem.O.Total()),
				f3(s.Quanta.FT), f3(s.Quanta.FS), f3(s.Quanta.NF), f3(s.Slack)},
			[]string{label + " util.", "1.000", f3(s.OverheadBandwidth),
				f3(s.AllocatedU.FT), f3(s.AllocatedU.FS), f3(s.AllocatedU.NF), f3(s.SlackBandwidth)},
		)
	}
	return Table(rows)
}

// WriteCSV writes the Figure 4 sweep as "P,lhs" rows with a header.
func WriteCSV(w io.Writer, series map[string][]region.Point) error {
	// Deterministic column order: sort keys.
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sortStrings(keys)
	if len(keys) == 0 {
		return nil
	}
	// All series share their P grid when produced by the same sweep
	// options; emit long format to stay safe regardless.
	if _, err := fmt.Fprintln(w, "series,P,lhs"); err != nil {
		return err
	}
	for _, k := range keys {
		for _, pt := range series[k] {
			if _, err := fmt.Fprintf(w, "%s,%.6f,%.6f\n", k, pt.P, pt.LHS); err != nil {
				return err
			}
		}
	}
	return nil
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// trim renders a float without trailing zeros.
func trim(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
