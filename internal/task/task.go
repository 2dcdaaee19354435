// Package task defines the sporadic task model of the paper (Section 2.3)
// and the partitioning of tasks onto the channels of each operating mode.
//
// A task τi = (Ci, Ti, Di, modei) has worst-case computation time Ci,
// minimum interarrival time Ti, relative deadline Di ≤ Ti and a required
// operating mode. Tasks are independent (no shared resources). Task sets
// are fixed before run-time.
package task

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/timeu"
)

// Mode is the fault-robustness operating mode a task requires
// (Section 2.2 of the paper).
type Mode int

const (
	// FT is the fault-tolerant mode: 4 cores in redundant lock-step form
	// one channel; a single transient fault is masked by majority vote.
	FT Mode = iota
	// FS is the fail-silent mode: 2 pairs of cores in lock-step form two
	// channels; a fault is detected and the faulty channel is silenced.
	FS
	// NF is the non-fault-tolerant mode: 4 independent cores, four
	// channels, maximum parallelism and no fault guarantee.
	NF
	numModes
)

// Modes lists all operating modes in the paper's slot order
// (FT slot first, then FS, then NF — Figure 2).
func Modes() []Mode { return []Mode{FT, FS, NF} }

// NumModes is the number of operating modes.
const NumModes = int(numModes)

// Channels returns the number of independent execution channels the
// 4-core platform provides in mode m (Section 2.4).
func (m Mode) Channels() int {
	switch m {
	case FT:
		return 1
	case FS:
		return 2
	case NF:
		return 4
	}
	return 0
}

// CoresPerChannel returns how many physical cores back one channel of
// mode m (4 in redundant lock-step, 2 in lock-step, 1 alone).
func (m Mode) CoresPerChannel() int {
	switch m {
	case FT:
		return 4
	case FS:
		return 2
	case NF:
		return 1
	}
	return 0
}

// String returns the paper's abbreviation for the mode.
func (m Mode) String() string {
	switch m {
	case FT:
		return "FT"
	case FS:
		return "FS"
	case NF:
		return "NF"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode converts the textual abbreviation ("FT", "FS", "NF") to a
// Mode. It accepts lower case too.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "FT", "ft":
		return FT, nil
	case "FS", "fs":
		return FS, nil
	case "NF", "nf":
		return NF, nil
	}
	return 0, fmt.Errorf("task: unknown mode %q (want FT, FS or NF)", s)
}

// Task is a sporadic real-time task.
type Task struct {
	// Name identifies the task in traces and reports, e.g. "tau7".
	Name string
	// C is the worst-case computation time.
	C float64
	// T is the minimum interarrival time (period).
	T float64
	// D is the relative deadline, with 0 < D ≤ T. A zero D is
	// normalised to T ("implicit deadline") by Normalize.
	D float64
	// Mode is the operating mode the task requires.
	Mode Mode
	// Channel is the index of the channel of Mode the task is
	// statically assigned to, in [0, Mode.Channels()).
	Channel int
}

// Utilization returns Ci/Ti.
func (t Task) Utilization() float64 {
	if t.T == 0 {
		return math.Inf(1)
	}
	return t.C / t.T
}

// Normalized returns a copy with D defaulted to T when unset.
func (t Task) Normalized() Task {
	if t.D == 0 {
		t.D = t.T
	}
	return t
}

// Validate checks the task parameters against the sporadic model. C, T
// and D must be positive and finite; the positivity checks are written
// so that NaN fails them.
func (t Task) Validate() error {
	switch {
	case !(t.C > 0) || math.IsInf(t.C, 0):
		return fmt.Errorf("task %s: C = %g must be positive and finite", t.Name, t.C)
	case !(t.T > 0) || math.IsInf(t.T, 0):
		return fmt.Errorf("task %s: T = %g must be positive and finite", t.Name, t.T)
	case !(t.D > 0) || math.IsInf(t.D, 0):
		return fmt.Errorf("task %s: D = %g must be positive and finite (or 0 before Normalize)", t.Name, t.D)
	case t.D > t.T:
		return fmt.Errorf("task %s: D = %g exceeds T = %g (constrained-deadline model requires D ≤ T)", t.Name, t.D, t.T)
	case t.C > t.D:
		return fmt.Errorf("task %s: C = %g exceeds D = %g, task can never meet its deadline", t.Name, t.C, t.D)
	case t.Mode < FT || t.Mode > NF:
		return fmt.Errorf("task %s: invalid mode %d", t.Name, int(t.Mode))
	case t.Channel < 0 || t.Channel >= t.Mode.Channels():
		return fmt.Errorf("task %s: channel %d out of range for mode %s (has %d channels)",
			t.Name, t.Channel, t.Mode, t.Mode.Channels())
	}
	return nil
}

// Set is an ordered collection of tasks.
type Set []Task

// ErrEmptySet is returned by operations that need at least one task.
var ErrEmptySet = errors.New("task: empty task set")

// Normalized returns a copy of the set with every task normalised.
func (s Set) Normalized() Set {
	out := make(Set, len(s))
	for i, t := range s {
		out[i] = t.Normalized()
	}
	return out
}

// Validate checks every task and that names are unique.
func (s Set) Validate() error {
	seen := make(map[string]bool, len(s))
	for _, t := range s {
		if err := t.Validate(); err != nil {
			return err
		}
		if t.Name != "" {
			if seen[t.Name] {
				return fmt.Errorf("task: duplicate task name %q", t.Name)
			}
			seen[t.Name] = true
		}
	}
	return nil
}

// Utilization returns the total utilisation U(T) = Σ Ci/Ti.
func (s Set) Utilization() float64 {
	u := 0.0
	for _, t := range s {
		u += t.Utilization()
	}
	return u
}

// ByMode returns the subset of tasks requiring mode m, preserving order.
func (s Set) ByMode(m Mode) Set {
	var out Set
	for _, t := range s {
		if t.Mode == m {
			out = append(out, t)
		}
	}
	return out
}

// ByChannel returns the subset of tasks assigned to channel ch of mode m.
func (s Set) ByChannel(m Mode, ch int) Set {
	var out Set
	for _, t := range s {
		if t.Mode == m && t.Channel == ch {
			out = append(out, t)
		}
	}
	return out
}

// maxChannels is the most channels any mode has: NF's four.
const maxChannels = 4

// Channels splits the tasks of mode m into per-channel subsets
// T_m^1 … T_m^numChannels, each in set order. Empty channels yield
// empty (nil) sets. The subsets share one exactly sized backing, each
// capped at its own length, so appending to one reallocates it rather
// than overwriting its neighbour.
func (s Set) Channels(m Mode) []Set {
	out := make([]Set, m.Channels())
	// at[ch+1] counts channel ch's tasks; the prefix sums then make
	// at[ch] the start of channel ch in the backing.
	var at [maxChannels + 1]int
	for _, t := range s {
		if t.Mode == m && t.Channel >= 0 && t.Channel < len(out) {
			at[t.Channel+1]++
		}
	}
	for ch := range out {
		at[ch+1] += at[ch]
	}
	if at[len(out)] == 0 {
		return out
	}
	backing := make(Set, at[len(out)])
	for ch := range out {
		if lo, hi := at[ch], at[ch+1]; hi > lo {
			out[ch] = backing[lo:lo:hi]
		}
	}
	for _, t := range s {
		if t.Mode == m && t.Channel >= 0 && t.Channel < len(out) {
			out[t.Channel] = append(out[t.Channel], t)
		}
	}
	return out
}

// MaxChannelUtilization returns max_i U(T_m^i), the largest per-channel
// utilisation in mode m. This is the "required utilisation" row of
// Table 2(a) in the paper.
func (s Set) MaxChannelUtilization(m Mode) float64 {
	u := 0.0
	for _, sub := range s.Channels(m) {
		if su := sub.Utilization(); su > u {
			u = su
		}
	}
	return u
}

// Hyperperiod returns the least common multiple of the task periods.
// Periods must be integral multiples of 1/den time units, and the
// multiple must fit in an int64 count of 1/den units.
func (s Set) Hyperperiod(den int64) (float64, error) {
	if len(s) == 0 {
		return 0, ErrEmptySet
	}
	h := int64(1)
	for _, t := range s {
		p, err := timeu.ScaledPeriod(t.T, den)
		if err != nil {
			return 0, err
		}
		if h, err = timeu.LCM(h, p); err != nil {
			return 0, err
		}
	}
	return float64(h) / float64(den), nil
}

// LessRM reports whether a precedes b in Rate Monotonic priority order:
// shorter period first; ties broken by shorter deadline, then by name,
// so the order is deterministic. It is the comparator behind SortedRM,
// exposed so that incremental consumers (analysis.Profile.AddTasks) can
// locate a task's priority position without re-sorting the whole set.
func LessRM(a, b Task) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.D != b.D {
		return a.D < b.D
	}
	return a.Name < b.Name
}

// LessDM reports whether a precedes b in Deadline Monotonic priority
// order: shorter relative deadline first; ties broken by period, then by
// name. It is the comparator behind SortedDM.
func LessDM(a, b Task) bool {
	if a.D != b.D {
		return a.D < b.D
	}
	if a.T != b.T {
		return a.T < b.T
	}
	return a.Name < b.Name
}

// SortedRM returns a copy sorted by Rate Monotonic priority (LessRM).
func (s Set) SortedRM() Set {
	out := append(Set(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return LessRM(out[i], out[j]) })
	return out
}

// SortedDM returns a copy sorted by Deadline Monotonic priority (LessDM).
func (s Set) SortedDM() Set {
	out := append(Set(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return LessDM(out[i], out[j]) })
	return out
}

// Names returns the task names in set order.
func (s Set) Names() []string {
	out := make([]string, len(s))
	for i, t := range s {
		out[i] = t.Name
	}
	return out
}

// Find returns the first task with the given name, or false.
func (s Set) Find(name string) (Task, bool) {
	for _, t := range s {
		if t.Name == name {
			return t, true
		}
	}
	return Task{}, false
}
