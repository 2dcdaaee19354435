package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/region"
	"repro/internal/task"
)

func TestTable(t *testing.T) {
	got := Table([][]string{
		{"a", "bb"},
		{"ccc", "d"},
	})
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want 3:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("missing header rule")
	}
	if !strings.HasPrefix(lines[2], "ccc") {
		t.Error("body row malformed")
	}
	if Table(nil) != "" {
		t.Error("empty table should render empty")
	}
}

func TestTaskTable(t *testing.T) {
	got := TaskTable(task.PaperTaskSet())
	if !strings.Contains(got, "tau13") || !strings.Contains(got, "FT") {
		t.Errorf("task table incomplete:\n%s", got)
	}
	// One header + rule + 13 rows.
	if n := len(strings.Split(strings.TrimRight(got, "\n"), "\n")); n != 15 {
		t.Errorf("task table has %d lines, want 15", n)
	}
}

func TestSolutionTable(t *testing.T) {
	pr := core.Problem{
		Tasks: task.PaperTaskSet(),
		Alg:   analysis.EDF,
		O:     core.UniformOverheads(task.PaperOverheadTotal),
	}
	b, c, err := design.Both(pr, region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := SolutionTable(b, c)
	for _, want := range []string{"req. util.", "0.267", "0.250", "2.966", "0.855", "min-overhead-bandwidth", "max-flexibility"} {
		if !strings.Contains(got, want) {
			t.Errorf("solution table missing %q:\n%s", want, got)
		}
	}
	if SolutionTable() != "" {
		t.Error("no solutions should render empty")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	series := map[string][]region.Point{
		"edf": {{P: 1, LHS: 0.1}, {P: 2, LHS: 0.2}},
		"rm":  {{P: 1, LHS: 0.05}},
	}
	if err := WriteCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want 4:\n%s", len(lines), got)
	}
	if lines[0] != "series,P,lhs" {
		t.Errorf("bad header %q", lines[0])
	}
	// Keys sorted: edf rows before rm.
	if !strings.HasPrefix(lines[1], "edf,1.000000,0.100000") {
		t.Errorf("bad first row %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "rm,") {
		t.Errorf("bad last row %q", lines[3])
	}
	if err := WriteCSV(&buf, nil); err != nil {
		t.Errorf("empty series: %v", err)
	}
}
