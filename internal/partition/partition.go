// Package partition assigns tasks to the channels of their operating
// mode. The paper assumes a manual partition (Section 3, citing Baruah
// [6] for automatic methods) and lists the allocation problem as future
// work; this package supplies that step with the classical bin-packing
// heuristics plus an exhaustive optimal baseline for small sets.
//
// A channel assignment is admissible when every channel passes the exact
// full-processor schedulability test for the chosen algorithm — a
// necessary condition for any slot size to exist: analysis.FeasibleEDF
// at α = 1, Δ = 0 for EDF, which allocates nothing, and response-time
// analysis for RM and DM. Among admissible placements the heuristics
// differ in how they balance utilisation, which in turn drives
// max_i minQ(T_k^i, alg, P) and therefore the feasible-period region.
//
// A placement costs one admission test per channel probed. Every
// heuristic probes a mode's channels in its order of preference and
// takes the first that fits; best- and worst-fit rank the channels by
// utilisation (see packer.place).
package partition

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/analysis"
	"repro/internal/task"
)

// Heuristic selects the bin-packing rule.
type Heuristic int

const (
	// FirstFit places each task on the lowest-indexed admissible channel.
	FirstFit Heuristic = iota
	// BestFit places each task on the admissible channel with the
	// highest current utilisation (tightest remaining room).
	BestFit
	// WorstFit places each task on the admissible channel with the
	// lowest current utilisation, balancing load across channels.
	WorstFit
	// NextFit keeps a rotating cursor per mode.
	NextFit
)

// String names the heuristic.
func (h Heuristic) String() string {
	switch h {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	case NextFit:
		return "next-fit"
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// ParseHeuristic converts a CLI-style name to a Heuristic.
func ParseHeuristic(s string) (Heuristic, error) {
	switch s {
	case "first-fit", "ff":
		return FirstFit, nil
	case "best-fit", "bf":
		return BestFit, nil
	case "worst-fit", "wf":
		return WorstFit, nil
	case "next-fit", "nf":
		return NextFit, nil
	}
	return 0, fmt.Errorf("partition: unknown heuristic %q", s)
}

// Options configure an assignment.
type Options struct {
	Heuristic Heuristic
	// Decreasing sorts tasks by decreasing utilisation before packing
	// (the "-D" variants, which carry better worst-case guarantees).
	Decreasing bool
	// Alg is the per-channel scheduling algorithm used by the admission
	// test.
	Alg analysis.Alg
}

// ErrUnplaceable is wrapped by Assign when some task fits no channel.
var ErrUnplaceable = fmt.Errorf("partition: task fits no channel")

// Assign returns a copy of the set with Channel fields chosen by the
// heuristic, mode by mode. The input's Channel values are ignored.
func Assign(s task.Set, opts Options) (task.Set, error) {
	if err := validateAlg(opts.Alg); err != nil {
		return nil, err
	}
	if err := validateHeuristic(opts.Heuristic); err != nil {
		return nil, err
	}
	out, err := normalizedInput(s)
	if err != nil {
		return nil, err
	}
	pk := packer{opts: opts}
	var pos []int
	for _, m := range task.Modes() {
		pos = modePositions(pos[:0], out, m)
		if len(pos) == 0 {
			continue
		}
		if opts.Decreasing {
			slices.SortStableFunc(pos, func(a, b int) int {
				return cmp.Compare(out[b].Utilization(), out[a].Utilization())
			})
		}
		pk.reset(m.Channels())
		for _, i := range pos {
			ch, err := pk.place(out[i])
			if err != nil {
				return nil, fmt.Errorf("%w: %s in mode %s", ErrUnplaceable, out[i].Name, m)
			}
			out[i].Channel = ch
			pk.bins[ch] = append(pk.bins[ch], out[i])
		}
	}
	return out, nil
}

// normalizedInput returns the normalised copy of s that Assign and
// AssignOptimal place, after validating it. The input's channels are
// ignored, so they are zeroed before the check and then chosen in
// range; every other parameter is checked before any placement, so an
// invalid task is reported as invalid, not as unplaceable.
func normalizedInput(s task.Set) (task.Set, error) {
	out := s.Normalized()
	for i := range out {
		out[i].Channel = 0
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// modePositions appends to dst the positions of the tasks of mode m in
// s, ascending. Channels are written back by position, so tasks need
// not be named.
func modePositions(dst []int, s task.Set, m task.Mode) []int {
	for i, tk := range s {
		if tk.Mode == m {
			dst = append(dst, i)
		}
	}
	return dst
}

// packer is one Assign's packing state, reused across probes and
// modes: the bins of the current mode, the next-fit cursor, and the
// trial channel and preference order of a probe.
type packer struct {
	opts   Options
	bins   []task.Set
	cursor int
	trial  task.Set
	order  []int
	util   []float64
}

// reset empties the bins for a mode with n channels.
func (pk *packer) reset(n int) {
	pk.bins = slices.Grow(pk.bins[:0], n)[:n]
	for ch := range pk.bins {
		pk.bins[ch] = pk.bins[ch][:0]
	}
	pk.cursor = 0
}

// fits reports whether channel ch stays schedulable with tk added.
func (pk *packer) fits(ch int, tk task.Task) bool {
	pk.trial = append(append(pk.trial[:0], pk.bins[ch]...), tk)
	ok, err := analysis.Schedulable(pk.trial, pk.opts.Alg)
	return err == nil && ok
}

// place picks the channel for one task according to the heuristic,
// which Assign has validated.
// Every heuristic probes channels in its order of preference and takes
// the first that fits. For best- and worst-fit that order is descending
// and ascending channel utilisation, ties to the lower index, so the
// first fit is the admissible channel of greatest (least) utilisation,
// the lowest-indexed of equals, and the channels after it are never
// probed.
func (pk *packer) place(tk task.Task) (int, error) {
	n := len(pk.bins)
	switch pk.opts.Heuristic {
	case FirstFit:
		for ch := 0; ch < n; ch++ {
			if pk.fits(ch, tk) {
				return ch, nil
			}
		}
	case NextFit:
		for k := 0; k < n; k++ {
			ch := (pk.cursor + k) % n
			if pk.fits(ch, tk) {
				pk.cursor = ch
				return ch, nil
			}
		}
	case BestFit, WorstFit:
		order, util := pk.order[:0], pk.util[:0]
		for ch, b := range pk.bins {
			order, util = append(order, ch), append(util, b.Utilization())
		}
		pk.order, pk.util = order, util
		sign := 1
		if pk.opts.Heuristic == BestFit {
			sign = -1
		}
		slices.SortStableFunc(order, func(a, b int) int { return sign * cmp.Compare(util[a], util[b]) })
		for _, ch := range order {
			if pk.fits(ch, tk) {
				return ch, nil
			}
		}
	}
	return 0, ErrUnplaceable
}

// maxOptimalTasksPerMode bounds the exhaustive search; beyond it the
// channel^n enumeration is no longer tractable.
const maxOptimalTasksPerMode = 12

// AssignOptimal exhaustively minimises, mode by mode, the maximum
// per-channel utilisation subject to the admission test. It is
// exponential in the per-mode task count and intended as a baseline for
// evaluating the heuristics.
func AssignOptimal(s task.Set, alg analysis.Alg) (task.Set, error) {
	if err := validateAlg(alg); err != nil {
		return nil, err
	}
	out, err := normalizedInput(s)
	if err != nil {
		return nil, err
	}
	var pos []int
	for _, m := range task.Modes() {
		pos = modePositions(pos[:0], out, m)
		if len(pos) == 0 {
			continue
		}
		if len(pos) > maxOptimalTasksPerMode {
			return nil, fmt.Errorf("partition: %d tasks in mode %s exceed the optimal-search bound %d",
				len(pos), m, maxOptimalTasksPerMode)
		}
		best, bestMax := []int(nil), math.Inf(1)
		assign := make([]int, len(pos))
		var rec func(i int)
		rec = func(i int) {
			if i == len(pos) {
				bins := make([]task.Set, m.Channels())
				for j, ch := range assign {
					bins[ch] = append(bins[ch], out[pos[j]])
				}
				worst := 0.0
				for _, b := range bins {
					if len(b) == 0 {
						continue
					}
					ok, err := analysis.Schedulable(b, alg)
					if err != nil || !ok {
						return
					}
					if u := b.Utilization(); u > worst {
						worst = u
					}
				}
				if worst < bestMax {
					bestMax = worst
					best = append([]int(nil), assign...)
				}
				return
			}
			for ch := 0; ch < m.Channels(); ch++ {
				assign[i] = ch
				rec(i + 1)
			}
		}
		rec(0)
		if best == nil {
			return nil, fmt.Errorf("%w: no admissible placement for mode %s", ErrUnplaceable, m)
		}
		for j, ch := range best {
			out[pos[j]].Channel = ch
		}
	}
	return out, nil
}

// MaxChannelUtilization returns the largest per-channel utilisation over
// all modes — the quantity the heuristics try to keep low.
func MaxChannelUtilization(s task.Set) float64 {
	worst := 0.0
	for _, m := range task.Modes() {
		if u := s.MaxChannelUtilization(m); u > worst {
			worst = u
		}
	}
	return worst
}

// validateHeuristic rejects a heuristic outside the four rules. The
// error does not wrap ErrUnplaceable: no task was tried.
func validateHeuristic(h Heuristic) error {
	if h < FirstFit || h > NextFit {
		return fmt.Errorf("partition: unknown heuristic %d", int(h))
	}
	return nil
}

func validateAlg(a analysis.Alg) error {
	if a != analysis.RM && a != analysis.DM && a != analysis.EDF {
		return fmt.Errorf("partition: unsupported algorithm %v", a)
	}
	return nil
}
