// Package analysis implements the uniprocessor schedulability mathematics
// the paper builds on (Section 3.2):
//
//   - the fixed-priority request-bound function W_i(t) (Eq. 5) and the
//     EDF demand-bound function W(t) (Eq. 9);
//   - Theorem 1 (FP) and Theorem 2 (EDF): feasibility of a task set on a
//     bounded-delay supply (α, Δ);
//   - the inversion of those theorems into the minimum slot length
//     minQ(T, alg, P) of Eq. (6) (FP) and Eq. (11) (EDF);
//   - Profile, a compiled form of minQ: Compile separates the
//     P-independent demand structure (scheduling points and their
//     demand values, with pairs that can never decide the result pruned
//     away) from the P-dependent quantum inversion, so design-space
//     sweeps evaluate Profile.MinQ in a tight allocation-free loop while
//     MinQ remains the straightforward reference oracle;
//   - classical full-processor tests: response-time analysis and the
//     processor demand criterion, which the automatic partitioner runs
//     through Schedulable.
//
// All tests assume the synchronous arrival pattern, independent tasks
// and constrained deadlines D ≤ T, as in the paper.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/points"
	"repro/internal/task"
	"repro/internal/timeu"
)

// Alg selects the per-channel scheduling algorithm.
type Alg int

const (
	// RM is fixed-priority scheduling with Rate Monotonic priorities.
	RM Alg = iota
	// DM is fixed-priority scheduling with Deadline Monotonic priorities.
	DM
	// EDF is Earliest Deadline First.
	EDF
)

// String returns the conventional abbreviation of the algorithm.
func (a Alg) String() string {
	switch a {
	case RM:
		return "RM"
	case DM:
		return "DM"
	case EDF:
		return "EDF"
	}
	return fmt.Sprintf("Alg(%d)", int(a))
}

// ParseAlg converts "rm", "dm" or "edf" (any case) to an Alg.
func ParseAlg(s string) (Alg, error) {
	switch s {
	case "RM", "rm":
		return RM, nil
	case "DM", "dm":
		return DM, nil
	case "EDF", "edf":
		return EDF, nil
	}
	return 0, fmt.Errorf("analysis: unknown algorithm %q (want RM, DM or EDF)", s)
}

// HyperperiodDenominator is the resolution at which task periods must be
// rational for EDF analyses that enumerate deadlines up to the
// hyperperiod: every period must be a multiple of
// 1/HyperperiodDenominator time units.
const HyperperiodDenominator = 1_000_000

// sorted returns the set in priority order for a fixed-priority Alg.
// EDF has no static order; the set is returned unchanged.
func (a Alg) sorted(s task.Set) task.Set {
	switch a {
	case RM:
		return s.SortedRM()
	case DM:
		return s.SortedDM()
	default:
		return s
	}
}

// RequestBound computes W_i(t) of Eq. (5): the worst-case amount of
// computation requested in [0, t) by the task itself (one job) plus all
// jobs of its higher-priority tasks hp.
func RequestBound(c float64, hp task.Set, t float64) float64 {
	w := c
	for _, h := range hp {
		w += releases(t, h.T) * h.C
	}
	return w
}

// releases is ⌈t/T⌉, the jobs of period T released in [0, t). It is
// pessimistic at its steps: at t = k·T it never counts fewer than k.
func releases(t, T float64) float64 { return math.Ceil(t / T) }

// DemandBound computes the EDF demand-bound function W(t) of Eq. (9):
// the total computation of jobs with both arrival and deadline in [0, t].
// It is exact: each task's jobs are counted as points.Deadline emits
// their deadlines, and each job charges its WCET rounded up to whole
// ticks (timeu.FromUnitsUp), the work the simulator executes. The sum
// is an integer tick count; one that overflows int64 saturates to +Inf,
// which every test reads as infeasible.
func DemandBound(s task.Set, t float64) float64 {
	var w int64
	for _, tk := range s {
		c, ok := wcetTicks(tk.C)
		if ok {
			w, ok = addJobs(w, jobs(tk.T, tk.D, t), c)
		}
		if !ok {
			return math.Inf(1)
		}
	}
	return timeu.Ticks(w).Units()
}

// jobs counts the deadlines points.Deadline(k, T, d), k ≥ 0, at or
// before t (d > 0): the points a deadline generator emits up to t. One
// floor estimates the count and one step corrects it against the
// generator's own arithmetic, where the floor of (t−d)/T alone can be
// one off at the deadlines themselves (t = d = 2.5665, T = 4 gives
// ⌊0.9999999999999999⌋ = 0). Counts beyond exact float range saturate.
func jobs(T, d, t float64) int64 {
	if !(t >= d) {
		return 0
	}
	q := math.Floor((t - d) / T)
	if !(q < 1<<52) {
		return math.MaxInt64
	}
	n := int(q) + 1
	if points.Deadline(n-1, T, d) > t {
		n--
	} else if points.Deadline(n, T, d) <= t {
		n++
	}
	return int64(n)
}

// wcetTicks is a WCET in whole ticks, rounded up as the simulator
// charges it (timeu.FromUnitsUp); ok is false when it overflows int64.
func wcetTicks(c float64) (int64, bool) {
	if !(c*timeu.Scale < 1<<63) {
		return 0, false
	}
	return int64(timeu.FromUnitsUp(c)), true
}

// addJobs returns the demand w plus n jobs of c ticks each (all
// non-negative); ok is false when the sum overflows int64.
func addJobs(w, n, c int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(n), uint64(c))
	s := w + int64(lo)
	return s, hi == 0 && lo <= math.MaxInt64 && s >= w
}

// errOverflow reports a demand beyond the int64 tick range.
var errOverflow = errors.New("analysis: demand overflows int64 ticks")

// Supply is the bounded-delay abstraction (α, Δ) of a mode's supply
// function: after an initial service delay of at most Delta, time is
// provided at least at rate Alpha (Eq. 3 of the paper).
type Supply struct {
	Alpha float64 // fraction of processor delivered, in (0, 1]
	Delta float64 // maximum service delay, ≥ 0
}

// Full is the trivial supply of a dedicated processor.
var Full = Supply{Alpha: 1, Delta: 0}

// Validate checks that α lies in (0, 1] and Δ is finite and
// non-negative; NaN fails both.
func (sp Supply) Validate() error {
	if !(sp.Alpha > 0 && sp.Alpha <= 1) {
		return fmt.Errorf("analysis: supply rate α = %g outside (0, 1]", sp.Alpha)
	}
	if !(sp.Delta >= 0) || math.IsInf(sp.Delta, 0) {
		return fmt.Errorf("analysis: supply delay Δ = %g must be finite and non-negative", sp.Delta)
	}
	return nil
}

// Value returns the linear supply lower bound Z'(t) = max{0, α(t−Δ)}.
func (sp Supply) Value(t float64) float64 {
	return math.Max(0, sp.Alpha*(t-sp.Delta))
}

// feasTol absorbs floating-point rounding in the boundary comparisons of
// Theorems 1 and 2. Configurations produced by inverting the theorems
// (MinQ) sit exactly on the boundary, where a strict comparison would
// flip on the last bit.
const feasTol = 1e-9

// FeasibleFP implements Theorem 1: the task set is schedulable by fixed
// priorities on supply (α, Δ) iff for every task some scheduling point t
// satisfies Δ ≤ t − W_i(t)/α. The priority order is given by alg, which
// must be RM or DM.
func FeasibleFP(s task.Set, alg Alg, sp Supply) (bool, error) {
	if alg != RM && alg != DM {
		return false, fmt.Errorf("analysis: FeasibleFP needs a fixed-priority algorithm, got %s", alg)
	}
	if err := sp.Validate(); err != nil {
		return false, err
	}
	ordered := alg.sorted(s)
	for i, tk := range ordered {
		ok := false
		for _, t := range points.FixedPriority(ordered[:i], tk.D) {
			if sp.Delta <= t-RequestBound(tk.C, ordered[:i], t)/sp.Alpha+feasTol {
				ok = true
				break
			}
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// FeasibleEDF implements Theorem 2: the task set is schedulable by EDF
// on supply (α, Δ) iff every deadline t up to the hyperperiod satisfies
// Δ ≤ t − W(t)/α. The partitioner's admission probes (α = 1, Δ = 0)
// and core's Verify run it. The demand row is the one Compile builds
// (demandRow), so W is exact at every point without a division per
// task and point; it is built and scanned in pooled scratch, and a call
// allocates nothing once the pool is warm (sets of up to 64 tasks).
func FeasibleEDF(s task.Set, sp Supply) (bool, error) {
	if err := sp.Validate(); err != nil {
		return false, err
	}
	if len(s) == 0 {
		return true, nil
	}
	if s.Utilization() > sp.Alpha+1e-12 {
		return false, nil // necessary condition; also bounds the busy period
	}
	h, err := s.Hyperperiod(HyperperiodDenominator)
	if err != nil {
		return false, err
	}
	sc := patchPool.Get().(*patchScratch)
	defer patchPool.Put(sc)
	dls, _, w, err := sc.demandRow(s, h)
	if errors.Is(err, errOverflow) {
		return false, nil // a demand beyond the tick range
	}
	if err != nil {
		return false, err
	}
	for k, t := range dls {
		if sp.Delta > t-timeu.Ticks(w[k]).Units()/sp.Alpha+feasTol {
			return false, nil
		}
	}
	return true, nil
}

// Feasible dispatches to FeasibleFP or FeasibleEDF according to alg.
func Feasible(s task.Set, alg Alg, sp Supply) (bool, error) {
	if alg == EDF {
		return FeasibleEDF(s, sp)
	}
	return FeasibleFP(s, alg, sp)
}

// qNeeded solves Q² + (t−P)·Q − P·W = 0 for the positive root
//
//	Q = [√((t−P)² + 4·P·W) − (t−P)] / 2,
//
// the minimum usable slot length that satisfies the feasibility
// inequality at point t (the algebra between Eq. 4 and Eq. 6). The
// equivalent form 2PW/(x + √(x²+4PW)) is used when t ≥ P to avoid the
// catastrophic cancellation of subtracting two nearly equal magnitudes.
func qNeeded(t, p, w float64) float64 {
	if w <= 0 {
		return 0
	}
	x := t - p
	disc := math.Sqrt(x*x + 4*p*w)
	if x >= 0 {
		return 2 * p * w / (x + disc)
	}
	return (disc - x) / 2
}

// MinQ computes minQ(T, alg, P): the minimum amount of time Q̃ that a
// slot of period P must make available for the task set to be feasible
// under alg (Eq. 6 for fixed priorities, Eq. 11 for EDF). An empty set
// needs no time at all. P must be positive.
func MinQ(s task.Set, alg Alg, p float64) (float64, error) {
	if !(p > 0) || math.IsInf(p, 0) {
		return 0, fmt.Errorf("analysis: MinQ period P = %g must be positive and finite", p)
	}
	if len(s) == 0 {
		return 0, nil
	}
	if alg == EDF {
		return minQEDF(s, p)
	}
	return minQFP(s, alg, p)
}

// minQFP evaluates Eq. (6): for each task the best (smallest) quantum
// over its scheduling points, then the worst over all tasks.
func minQFP(s task.Set, alg Alg, p float64) (float64, error) {
	if alg != RM && alg != DM {
		return 0, fmt.Errorf("analysis: minQFP needs a fixed-priority algorithm, got %s", alg)
	}
	ordered := alg.sorted(s)
	q := 0.0
	for i, tk := range ordered {
		best := math.Inf(1)
		for _, t := range points.FixedPriority(ordered[:i], tk.D) {
			if v := qNeeded(t, p, RequestBound(tk.C, ordered[:i], t)); v < best {
				best = v
			}
		}
		if best > q {
			q = best
		}
	}
	return q, nil
}

// minQEDF evaluates Eq. (11): the worst quantum over all deadlines up to
// the hyperperiod.
func minQEDF(s task.Set, p float64) (float64, error) {
	h, err := s.Hyperperiod(HyperperiodDenominator)
	if err != nil {
		return 0, err
	}
	dls, err := points.Deadlines(s, h)
	if err != nil {
		return 0, err
	}
	q := 0.0
	for _, t := range dls {
		w := DemandBound(s, t)
		if math.IsInf(w, 1) {
			return 0, errOverflow
		}
		if v := qNeeded(t, p, w); v > q {
			q = v
		}
	}
	return q, nil
}
