package trace

import (
	"strings"
	"testing"

	"repro/internal/task"
	"repro/internal/timeu"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(Event{Kind: Release})
	l.AddSegment(Segment{From: 0, To: 10, Task: "x"})
	l.Sort()
	if l.Count(Release) != 0 || l.Gantt(0, 10, 10) != "" {
		t.Error("nil log must discard and return zero values")
	}
}

func TestAddAndFilter(t *testing.T) {
	l := &Log{}
	l.Add(Event{At: 5, Kind: Release, Task: "a"})
	l.Add(Event{At: 3, Kind: Complete, Task: "a"})
	l.Add(Event{At: 7, Kind: Release, Task: "b"})
	if l.Count(Release) != 2 || l.Count(Complete) != 1 || l.Count(Miss) != 0 {
		t.Error("counts wrong")
	}
	l.Sort()
	if l.Events[0].At != 3 {
		t.Error("Sort must order by time")
	}
}

func TestSegmentMerging(t *testing.T) {
	l := &Log{}
	l.AddSegment(Segment{From: 0, To: 5, Task: "a", Mode: task.NF, Channel: 0})
	l.AddSegment(Segment{From: 5, To: 9, Task: "a", Mode: task.NF, Channel: 0})
	if len(l.Segments) != 1 || l.Segments[0].To != 9 {
		t.Errorf("contiguous segments should merge: %+v", l.Segments)
	}
	// Different task: no merge.
	l.AddSegment(Segment{From: 9, To: 12, Task: "b", Mode: task.NF, Channel: 0})
	if len(l.Segments) != 2 {
		t.Error("segments of different tasks must not merge")
	}
	// Gap: no merge.
	l.AddSegment(Segment{From: 20, To: 22, Task: "b", Mode: task.NF, Channel: 0})
	if len(l.Segments) != 3 {
		t.Error("non-contiguous segments must not merge")
	}
	// Degenerate segment: dropped.
	l.AddSegment(Segment{From: 30, To: 30, Task: "c"})
	if len(l.Segments) != 3 {
		t.Error("empty segments must be dropped")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{Release, Complete, Miss, Abort, FaultStrike, FaultClear, Masked, Silenced, Corrupted,
		Shed, Evicted, Readmitted, Degraded, Restored, EnvelopeFallback,
		Admitted, Removed, Cancelled, Reshape}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(Kind(99).String(), "Kind(") {
		t.Error("unknown kind should render numerically")
	}
}

func TestGantt(t *testing.T) {
	l := &Log{}
	u := func(x float64) timeu.Ticks { return timeu.FromUnits(x) }
	l.AddSegment(Segment{From: u(0), To: u(1), Task: "aa"})
	l.AddSegment(Segment{From: u(2), To: u(3), Task: "b"})
	g := l.Gantt(0, u(4), 40)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("Gantt has %d lines, want header + 2 rows:\n%s", len(lines), g)
	}
	if !strings.Contains(lines[1], "aa") || !strings.Contains(lines[1], "#") {
		t.Errorf("row for aa malformed: %q", lines[1])
	}
	// aa runs the first quarter: its '#' must appear before column 15.
	hash := strings.IndexByte(lines[1], '#')
	if hash < 0 || hash > 15 {
		t.Errorf("aa execution misplaced in %q", lines[1])
	}
	// b runs the third quarter.
	row := lines[2][strings.IndexByte(lines[2], ' '):]
	first := strings.IndexByte(row, '#')
	if first < 20 {
		t.Errorf("b execution misplaced: %q", lines[2])
	}
	// Degenerate calls.
	if l.Gantt(u(4), u(0), 10) != "" || l.Gantt(0, u(1), 0) != "" {
		t.Error("degenerate Gantt should be empty")
	}
	// Sub-column segments still render one cell.
	short := &Log{}
	short.AddSegment(Segment{From: u(0.001), To: u(0.002), Task: "t"})
	if !strings.Contains(short.Gantt(0, u(4), 10), "#") {
		t.Error("tiny segment should still paint one cell")
	}
}

func TestSortSegments(t *testing.T) {
	l := &Log{}
	l.AddSegment(Segment{From: 10, To: 20, Task: "b"})
	l.AddSegment(Segment{From: 0, To: 5, Task: "a"})
	l.Sort()
	if l.Segments[0].Task != "a" {
		t.Error("segments should sort by start time")
	}
}

func TestEventCap(t *testing.T) {
	l := &Log{MaxEvents: 2}
	for i := 0; i < 5; i++ {
		l.Add(Event{At: timeu.Ticks(i), Kind: Release})
	}
	if len(l.Events) != 2 || l.DroppedEvents != 3 {
		t.Errorf("cap 2: kept %d dropped %d, want 2/3", len(l.Events), l.DroppedEvents)
	}
	if !l.Truncated() {
		t.Error("log with drops must report Truncated")
	}
	var full *Log
	if full.Truncated() {
		t.Error("nil log is never truncated")
	}
}

func TestSegmentCapMergeExempt(t *testing.T) {
	l := &Log{MaxSegments: 1}
	l.AddSegment(Segment{From: 0, To: 5, Task: "a"})
	// Contiguous extension of the retained segment must not count.
	l.AddSegment(Segment{From: 5, To: 9, Task: "a"})
	if len(l.Segments) != 1 || l.Segments[0].To != 9 || l.DroppedSegments != 0 {
		t.Errorf("merge counted against cap: %+v dropped=%d", l.Segments, l.DroppedSegments)
	}
	l.AddSegment(Segment{From: 20, To: 22, Task: "b"})
	if len(l.Segments) != 1 || l.DroppedSegments != 1 {
		t.Errorf("new segment past cap should drop: %+v dropped=%d", l.Segments, l.DroppedSegments)
	}
}

func TestTruncate(t *testing.T) {
	l := &Log{}
	for i := 0; i < 6; i++ {
		l.Add(Event{At: timeu.Ticks(i), Kind: Release})
		l.AddSegment(Segment{From: timeu.Ticks(10 * i), To: timeu.Ticks(10*i + 5), Task: "a"})
	}
	l.Truncate(4, 2)
	if len(l.Events) != 4 || l.DroppedEvents != 2 {
		t.Errorf("event truncation wrong: kept %d dropped %d", len(l.Events), l.DroppedEvents)
	}
	if len(l.Segments) != 2 || l.DroppedSegments != 4 {
		t.Errorf("segment truncation wrong: kept %d dropped %d", len(l.Segments), l.DroppedSegments)
	}
	if l.Events[3].At != 3 {
		t.Error("truncation must keep the earliest entries")
	}
	// Zero caps leave the log untouched.
	n := len(l.Events)
	l.Truncate(0, 0)
	if len(l.Events) != n {
		t.Error("zero caps must not truncate")
	}
}

func TestGanttReshapeMarker(t *testing.T) {
	u := func(x float64) timeu.Ticks { return timeu.FromUnits(x) }
	l := &Log{}
	l.AddSegment(Segment{From: u(0), To: u(4), Task: "a"})
	l.Add(Event{At: u(2), Kind: Reshape})
	g := l.Gantt(0, u(4), 40)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("Gantt with reshape has %d lines, want header + marker + 1 row:\n%s", len(lines), g)
	}
	bar := strings.IndexByte(lines[1], '|')
	if bar < 0 {
		t.Fatalf("marker row missing '|': %q", lines[1])
	}
	// The reshape at t=2 of [0,4) lands mid-row.
	if bar < 15 || bar > 25 {
		t.Errorf("reshape marker misplaced at col %d in %q", bar, lines[1])
	}
	// A reshape outside the window paints no marker row.
	l2 := &Log{}
	l2.AddSegment(Segment{From: u(0), To: u(1), Task: "a"})
	l2.Add(Event{At: u(9), Kind: Reshape})
	if strings.Contains(l2.Gantt(0, u(4), 40), "|") {
		t.Error("out-of-window reshape should not paint a marker")
	}
}
