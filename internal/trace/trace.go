// Package trace records what happened during a simulation run: discrete
// events (releases, completions, faults, admissions, reshapes, …) and
// continuous execution segments, plus an ASCII Gantt renderer for
// inspecting small windows. Scenario replays (internal/sim) land
// admission-side events and execution-side segments in the same
// time-ordered log, so a reshape can be read in context of the jobs it
// interrupted.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/task"
	"repro/internal/timeu"
)

// Kind classifies a discrete event.
type Kind int

const (
	// Release marks a job arrival.
	Release Kind = iota
	// Complete marks a job finishing within its deadline.
	Complete
	// Miss marks a deadline miss (at completion or at the deadline for
	// unfinished jobs).
	Miss
	// Abort marks a job killed by a fail-silent channel shutdown.
	Abort
	// FaultStrike marks a transient fault hitting a core.
	FaultStrike
	// FaultClear marks the end of a transient fault.
	FaultClear
	// Masked marks a fault neutralised by the FT majority vote.
	Masked
	// Silenced marks a fail-silent channel being blocked by the checker.
	Silenced
	// Corrupted marks a job that executed through a fault in NF mode and
	// produced a wrong result (undetected by construction).
	Corrupted
	// Shed marks a task dropped from an admission batch by the value
	// policy because the whole group did not fit (online manager).
	Shed
	// Evicted marks a live task parked by a capacity revocation.
	Evicted
	// Readmitted marks a parked task returning to the live set after a
	// capacity restore.
	Readmitted
	// Degraded marks a capacity revocation taking effect.
	Degraded
	// Restored marks a capacity restore taking effect.
	Restored
	// EnvelopeFallback marks a channel whose incremental profile patch
	// bailed to a full recompile (a hyperperiod change on admit or
	// release, or a violated stream invariant), so the event paid the
	// oracle's cost instead of the patch's.
	EnvelopeFallback
	// Admitted marks tasks entering the live set through a scenario
	// workload event (replayed against the online manager).
	Admitted
	// Removed marks tasks leaving the live set through a scenario
	// workload event.
	Removed
	// Cancelled marks a pending job withdrawn because its task left the
	// live set at a reshape boundary (deadline still ahead — not a miss).
	Cancelled
	// Reshape marks a slot-cycle boundary at which the scenario runtime
	// swapped the executing configuration or task membership.
	Reshape
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case Release:
		return "release"
	case Complete:
		return "complete"
	case Miss:
		return "miss"
	case Abort:
		return "abort"
	case FaultStrike:
		return "fault-strike"
	case FaultClear:
		return "fault-clear"
	case Masked:
		return "masked"
	case Silenced:
		return "silenced"
	case Corrupted:
		return "corrupted"
	case Shed:
		return "shed"
	case Evicted:
		return "evicted"
	case Readmitted:
		return "readmitted"
	case Degraded:
		return "degraded"
	case Restored:
		return "restored"
	case EnvelopeFallback:
		return "envelope-fallback"
	case Admitted:
		return "admitted"
	case Removed:
		return "removed"
	case Cancelled:
		return "cancelled"
	case Reshape:
		return "reshape"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one discrete occurrence.
type Event struct {
	At      timeu.Ticks
	Kind    Kind
	Task    string    // task name, empty for platform events
	Mode    task.Mode // mode in whose slot the event falls
	Channel int       // channel index within the mode
	Core    int       // core index for fault events, -1 otherwise
	Detail  string    // free-form context
}

// Segment is a maximal interval during which one job executed.
type Segment struct {
	From, To timeu.Ticks
	Task     string
	Mode     task.Mode
	Channel  int
}

// Log accumulates events and segments. The zero value is ready to use;
// a nil *Log discards everything, so simulation code can trace
// unconditionally.
//
// MaxEvents and MaxSegments, when positive, bound the retained slices:
// once full, further entries are counted in DroppedEvents /
// DroppedSegments instead of stored (the earliest entries are the ones
// kept — extending an existing segment never counts against the cap).
// Million-tick scenarios can then trace unconditionally without
// retaining an unbounded log.
type Log struct {
	Events   []Event
	Segments []Segment

	// MaxEvents bounds len(Events); 0 means unbounded.
	MaxEvents int
	// MaxSegments bounds len(Segments); 0 means unbounded.
	MaxSegments int
	// DroppedEvents counts events discarded because the log was full.
	DroppedEvents int
	// DroppedSegments counts segments discarded because the log was full.
	DroppedSegments int
}

// Truncated reports whether the caps discarded anything.
func (l *Log) Truncated() bool {
	return l != nil && (l.DroppedEvents > 0 || l.DroppedSegments > 0)
}

// Add appends an event. No-op on a nil log; counted but discarded on a
// full one.
func (l *Log) Add(e Event) {
	if l == nil {
		return
	}
	if l.MaxEvents > 0 && len(l.Events) >= l.MaxEvents {
		l.DroppedEvents++
		return
	}
	l.Events = append(l.Events, e)
}

// AddSegment appends an execution segment, merging it with the previous
// one when contiguous (same task, channel and mode, abutting times).
// Merges never count against MaxSegments — only genuinely new segments
// do.
func (l *Log) AddSegment(s Segment) {
	if l == nil || s.To <= s.From {
		return
	}
	if n := len(l.Segments); n > 0 {
		last := &l.Segments[n-1]
		if last.Task == s.Task && last.Channel == s.Channel && last.Mode == s.Mode && last.To == s.From {
			last.To = s.To
			return
		}
	}
	if l.MaxSegments > 0 && len(l.Segments) >= l.MaxSegments {
		l.DroppedSegments++
		return
	}
	l.Segments = append(l.Segments, s)
}

// Truncate enforces the caps on an already-populated log — the merge
// path: per-channel logs are concatenated, sorted, and then bounded so
// the globally earliest entries are the ones retained. Zero caps leave
// the log untouched.
func (l *Log) Truncate(maxEvents, maxSegments int) {
	if l == nil {
		return
	}
	if maxEvents > 0 && len(l.Events) > maxEvents {
		l.DroppedEvents += len(l.Events) - maxEvents
		l.Events = l.Events[:maxEvents]
	}
	if maxSegments > 0 && len(l.Segments) > maxSegments {
		l.DroppedSegments += len(l.Segments) - maxSegments
		l.Segments = l.Segments[:maxSegments]
	}
	l.MaxEvents, l.MaxSegments = maxEvents, maxSegments
}

// Sort orders events by time (stable on insertion order) and segments by
// start. Simulations that run channels concurrently call this once at
// the end to make the log deterministic.
func (l *Log) Sort() {
	if l == nil {
		return
	}
	sort.SliceStable(l.Events, func(i, j int) bool { return l.Events[i].At < l.Events[j].At })
	sort.SliceStable(l.Segments, func(i, j int) bool {
		if l.Segments[i].From != l.Segments[j].From {
			return l.Segments[i].From < l.Segments[j].From
		}
		return l.Segments[i].Task < l.Segments[j].Task
	})
}

// Filter returns the events of the given kind.
func (l *Log) Filter(k Kind) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	for _, e := range l.Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Count returns how many events of kind k were recorded, without
// materialising the filtered slice.
func (l *Log) Count(k Kind) int {
	if l == nil {
		return 0
	}
	n := 0
	for _, e := range l.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Gantt renders the execution segments overlapping [from, to) as an
// ASCII chart with the given number of columns: one row per task (sorted
// by name), '#' where the task runs, '.' where it does not. Reshape
// events inside the window add a marker row ('|' at each boundary), so a
// mid-window reconfiguration can be read against the execution it
// interrupted. It is meant for eyeballing a few periods, not for bulk
// output.
func (l *Log) Gantt(from, to timeu.Ticks, cols int) string {
	if l == nil || to <= from || cols <= 0 {
		return ""
	}
	names := map[string]bool{}
	for _, s := range l.Segments {
		if s.To > from && s.From < to {
			names[s.Task] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	width := 0
	for _, n := range sorted {
		if len(n) > width {
			width = len(n)
		}
	}
	span := float64(to - from)
	col := func(t timeu.Ticks) int { return int(float64(t-from) / span * float64(cols)) }
	var b strings.Builder
	fmt.Fprintf(&b, "%*s  t=[%s, %s)\n", width, "", from, to)
	var reshapes []timeu.Ticks
	for _, e := range l.Events {
		if e.Kind == Reshape && e.At >= from && e.At < to {
			reshapes = append(reshapes, e.At)
		}
	}
	if len(reshapes) > 0 {
		row := make([]byte, cols)
		for i := range row {
			row[i] = ' '
		}
		for _, at := range reshapes {
			if c := col(at); c >= 0 && c < cols {
				row[c] = '|'
			}
		}
		fmt.Fprintf(&b, "%*s  %s\n", width, "", row)
	}
	for _, n := range sorted {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range l.Segments {
			if s.Task != n || s.To <= from || s.From >= to {
				continue
			}
			lo := col(max(s.From, from))
			hi := col(min(s.To, to))
			if hi == lo && hi < cols {
				hi = lo + 1
			}
			for i := lo; i < hi && i < cols; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%*s  %s\n", width, n, row)
	}
	return b.String()
}
