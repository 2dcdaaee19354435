// Package region explores the design space of the slot-cycle period P
// (Section 3.3 and Figure 4 of the paper).
//
// The feasibility condition on P is Eq. (15): lhs(P) ≥ O_tot, with
// lhs(P) = P − S(P) and S(P) = Σ_k max_i minQ(T_k^i, alg, P). The
// function lhs is continuous but not monotone: it climbs while larger
// periods amortise the supply delays and falls once the slot delays
// approach the task deadlines. The package provides the Figure 4 sweep
// and the three scalar quantities the paper extracts from it: the
// maximum feasible period for a given overhead, the maximum admissible
// total overhead, and the period maximising the redistributable slack
// bandwidth.
//
// The three searches look for their answer on the grid of the sweep,
// p_i = i·PMax/Samples, and refine it between grid samples. They do not
// evaluate every sample: S at the left end p_lo of an interval
// (p_lo, p_hi] of the grid bounds lhs on the whole interval, by two
// facts of the supply model.
//
//   - S is nondecreasing. Every per-point quantum of minQ is
//     nondecreasing in P (it is 0 for zero demand, and its derivative
//     in P is positive otherwise), and maxima and minima of
//     nondecreasing functions are nondecreasing, so S is nondecreasing
//     for EDF and for RM/DM alike. Hence lhs(p) ≤ p − S(p_lo).
//   - Below full bandwidth, so is S(P)/P. A point t with demand W > 0
//     needs the bandwidth α = Q/P that solves α·(t − P·(1 − α)) = W.
//     α < 1 exactly when W < t, whatever P is, and then α rises with P,
//     because the slot delay P − Q that the point must absorb grows with
//     P. If S(p_lo) < p_lo, every channel's quantum at p_lo is below
//     p_lo, so the points that decide the quanta have W < t: an EDF
//     channel's worst point, and among an FP level's points the best,
//     which is never one with W ≥ t (those need α ≥ 1 at every P). The
//     quanta's bandwidths are then maxima and minima of nondecreasing
//     bandwidths at every P, so S(p) ≥ S(p_lo)·p/p_lo, and
//     lhs(p) ≤ p − S(p_lo)·p/p_lo, the tighter bound.
//
// Each search objective, being nondecreasing in lhs, is bounded on the
// interval by its value at that bound. The searches split the grid into
// intervals, evaluate S once at each split point, and skip every
// interval whose bound, widened by a relative margin of 1e-9, rules out
// the answer. The margin lies far above float64 rounding in S, and it
// absorbs a guard S(p_lo) < p_lo that holds only by rounding: the
// deciding points then sit at W ≈ t, where α ≈ 1 barely moves with P.
// Every sample that can decide a result is evaluated by the expression
// CompiledProblem.LHS uses, so the results are the ones a scan of every
// sample gives, bit for bit.
package region

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/task"
)

// DefaultSamples is the resolution of the search grid when
// Options.Samples is zero. lhs kinks at scheduling-point crossovers, so
// the searches locate their answer on a dense grid and then refine it
// inside a bracket; 4096 samples resolve every feature of workloads with
// the paper's time scale. The searches evaluate lhs at only the samples
// their bounds cannot rule out (see the package comment).
const DefaultSamples = 4096

// bisectTolerance is the absolute tolerance of the bracket refinements.
const bisectTolerance = 1e-9

// Options tune the exploration searches.
type Options struct {
	// PMax bounds the period search from above. Zero means "derive from
	// the task set" (see UpperBound).
	PMax float64
	// Samples is the number of grid samples over (0, PMax].
	Samples int
}

func (o Options) withDefaults(pr core.Problem) (Options, error) {
	if o.PMax == 0 {
		ub, err := UpperBound(pr.Tasks)
		if err != nil {
			return o, err
		}
		o.PMax = ub
	}
	if o.PMax <= 0 {
		return o, fmt.Errorf("region: PMax = %g must be positive", o.PMax)
	}
	if o.Samples == 0 {
		o.Samples = DefaultSamples
	}
	if o.Samples < 2 {
		return o, fmt.Errorf("region: Samples = %d too small", o.Samples)
	}
	return o, nil
}

// UpperBound returns a safe upper limit for the period search. A
// feasible period keeps every mode's supply delay Δ_k = P − Q̃_k below
// the smallest deadline served in that mode (a task cannot wait longer
// than its deadline); summing over the modes with Σ Q̃_k ≤ P yields
// P < Σ_k minD_k / (numModes − 1).
func UpperBound(s task.Set) (float64, error) {
	if len(s) == 0 {
		return 0, task.ErrEmptySet
	}
	// Fold each mode's minimum deadline in one pass; a mode is active
	// when it has a task.
	var (
		minD   [task.NumModes]float64
		active [task.NumModes]bool
	)
	for _, t := range s {
		if t.Mode < 0 || int(t.Mode) >= task.NumModes {
			continue
		}
		if !active[t.Mode] {
			active[t.Mode], minD[t.Mode] = true, math.Inf(1)
		}
		if t.D < minD[t.Mode] {
			minD[t.Mode] = t.D
		}
	}
	sum := 0.0
	n := 0
	for m, ok := range active {
		if ok {
			n++
			sum += minD[m]
		}
	}
	if n <= 1 {
		// With a single active mode the slot can span the whole period;
		// the binding constraint is the smallest deadline itself.
		return sum, nil
	}
	return sum / float64(n-1), nil
}

// Point is one sample of the Figure 4 curve.
type Point struct {
	P   float64 // period
	LHS float64 // left-hand side of Eq. (15)
}

// Sweep evaluates lhs(P) over an even grid of (0, PMax], producing the
// data behind Figure 4. The first sample sits at PMax/Samples, not at 0
// where the condition is degenerate. The problem is compiled once (see
// core.Problem.Compile) and every sample is served from the compiled
// profiles.
func Sweep(pr core.Problem, opts Options) ([]Point, error) {
	cp, err := pr.Compile()
	if err != nil {
		return nil, err
	}
	return SweepCompiled(cp, opts)
}

// SweepCompiled is Sweep for an already-compiled problem, so callers
// running several searches over the same problem pay the compilation
// once.
func SweepCompiled(cp *core.CompiledProblem, opts Options) ([]Point, error) {
	opts, err := opts.withDefaults(cp.Problem())
	if err != nil {
		return nil, err
	}
	out := make([]Point, 0, opts.Samples)
	step := opts.PMax / float64(opts.Samples)
	for i := 1; i <= opts.Samples; i++ {
		p := float64(i) * step
		out = append(out, Point{P: p, LHS: cp.LHS(p)})
	}
	return out, nil
}

// ErrInfeasible is returned when no period satisfies Eq. (15).
var ErrInfeasible = errors.New("region: no feasible period for the given overhead")

// boundMargin is the relative margin of every interval bound, the value
// of envelope.PruneMargin: far above float64 rounding noise, so rounding
// in S can never prune a sample that decides a search.
const boundMargin = 1e-9

// grid is the sample grid p_i = i·step, i = 1..n, of one search over
// (0, PMax], with the count of lhs evaluations the search made on it,
// refinements included.
type grid struct {
	cp         *core.CompiledProblem
	pMax, step float64
	n          int
	evals      int
}

func newGrid(cp *core.CompiledProblem, opts Options) grid {
	return grid{cp: cp, pMax: opts.PMax, step: opts.PMax / float64(opts.Samples), n: opts.Samples}
}

// p returns the period of sample i; p(0) = 0.
func (g *grid) p(i int) float64 { return float64(i) * g.step }

// quanta returns S(p) = Σ_k max_i minQ(T_k^i, P), the sum lhs subtracts
// from p, with one MinQuanta call.
func (g *grid) quanta(p float64) float64 {
	g.evals++
	return g.cp.MinQuanta(p).Total()
}

// lhs is cp.LHS(p), computed by the same expression.
func (g *grid) lhs(p float64) float64 { return p - g.quanta(p) }

// lhsBound bounds lhs(p) at a p > pLo from s = S(pLo) (see the package
// comment). When pLo > 0 and s < pLo, S(P)/P is nondecreasing, so
// S(p) ≥ s·p/pLo and lhs(p) ≤ p − s·p/pLo; otherwise S is still
// nondecreasing and lhs(p) ≤ p − s. The relative margin covers rounding
// in S, and in the guard s < pLo itself. For fixed pLo and s the bound
// is linear in p.
func lhsBound(pLo, p, s float64) float64 {
	if pLo > 0 && s < pLo {
		s *= p / pLo
	}
	return p - s + boundMargin*(p+s)
}

// MaxFeasiblePeriod returns the largest period P ≤ PMax with
// lhs(P) ≥ O_tot (points ①, ② and ⑤ of Figure 4): the largest feasible
// grid sample, sharpened by bisection towards the next sample. It finds
// that sample top-down and evaluates only the samples whose interval
// bound (see the package comment) does not exclude them; the result is
// the one a scan of every sample from PMax downward finds.
func MaxFeasiblePeriod(pr core.Problem, opts Options) (float64, error) {
	cp, err := pr.Compile()
	if err != nil {
		return 0, err
	}
	return MaxFeasiblePeriodCompiled(cp, opts)
}

// MaxFeasiblePeriodCompiled is MaxFeasiblePeriod for an
// already-compiled problem.
func MaxFeasiblePeriodCompiled(cp *core.CompiledProblem, opts Options) (float64, error) {
	opts, err := opts.withDefaults(cp.Problem())
	if err != nil {
		return 0, err
	}
	g := newGrid(cp, opts)
	return maxFeasiblePeriod(&g, cp.Problem().O.Total())
}

func maxFeasiblePeriod(g *grid, target float64) (float64, error) {
	i := g.lastFeasible(0, 0, g.n, target)
	if i == 0 {
		return 0, ErrInfeasible
	}
	// p feasible, p+step (if inside the range) infeasible: bisect.
	lo, hi := g.p(i), math.Min(g.p(i)+g.step, g.pMax)
	if hi <= lo {
		return lo, nil
	}
	for hi-lo > bisectTolerance {
		mid := (lo + hi) / 2
		if g.lhs(mid) >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// lastFeasible returns the largest sample index in (lo, hi] with
// lhs ≥ target, or 0 if there is none; s is S(p(lo)), 0 at lo = 0.
// lhsBound rises with p, so its value at p(hi) bounds the interval.
func (g *grid) lastFeasible(lo int, s float64, hi int, target float64) int {
	if lo >= hi || lhsBound(g.p(lo), g.p(hi), s) < target {
		return 0
	}
	mid := lo + (hi-lo+1)/2
	sMid := g.quanta(g.p(mid))
	if i := g.lastFeasible(mid, sMid, hi, target); i != 0 {
		return i
	}
	if g.p(mid)-sMid >= target {
		return mid
	}
	return g.lastFeasible(lo, s, mid-1, target)
}

// MaxAdmissibleOverhead returns the largest total overhead for which a
// feasible period exists — the peak of the lhs curve (points ③ and ④
// of Figure 4) — along with the period attaining it. The peak is the
// best grid sample (see maximize), refined by golden-section search in
// the winning bracket (lhs is smooth between scheduling-point kinks, and
// the grid is fine enough to land the bracket on the right piece).
func MaxAdmissibleOverhead(pr core.Problem, opts Options) (period, overhead float64, err error) {
	cp, err := pr.Compile()
	if err != nil {
		return 0, 0, err
	}
	return MaxAdmissibleOverheadCompiled(cp, opts)
}

// MaxAdmissibleOverheadCompiled is MaxAdmissibleOverhead for an
// already-compiled problem.
func MaxAdmissibleOverheadCompiled(cp *core.CompiledProblem, opts Options) (period, overhead float64, err error) {
	opts, err = opts.withDefaults(cp.Problem())
	if err != nil {
		return 0, 0, err
	}
	g := newGrid(cp, opts)
	p, v := maximize(&g, lhsObjective)
	return p, v, nil
}

// MaxSlackBandwidth returns the period maximising the redistributable
// slack bandwidth (lhs(P) − O_tot)/P — the paper's second design goal
// (maximum run-time flexibility, Table 2(c)) — and that bandwidth.
func MaxSlackBandwidth(pr core.Problem, opts Options) (period, bandwidth float64, err error) {
	cp, err := pr.Compile()
	if err != nil {
		return 0, 0, err
	}
	return MaxSlackBandwidthCompiled(cp, opts)
}

// MaxSlackBandwidthCompiled is MaxSlackBandwidth for an
// already-compiled problem.
func MaxSlackBandwidthCompiled(cp *core.CompiledProblem, opts Options) (period, bandwidth float64, err error) {
	opts, err = opts.withDefaults(cp.Problem())
	if err != nil {
		return 0, 0, err
	}
	g := newGrid(cp, opts)
	return maxSlackBandwidth(&g, cp.Problem().O.Total())
}

func maxSlackBandwidth(g *grid, target float64) (period, bandwidth float64, err error) {
	p, v := maximize(g, slackObjective(target))
	if v < 0 {
		return 0, 0, ErrInfeasible
	}
	return p, v, nil
}

// lhsObjective is MaxAdmissibleOverhead's objective: lhs itself.
func lhsObjective(p, lhs float64) float64 { return lhs }

// slackObjective is MaxSlackBandwidth's objective: the slack bandwidth
// (lhs − target)/P.
func slackObjective(target float64) func(p, lhs float64) float64 {
	return func(p, lhs float64) float64 { return (lhs - target) / p }
}

// maximize finds the first grid sample with the maximal objective(p,
// lhs(p)), as a scan of every sample keeping the strictly greater value
// would, and refines its bracket by golden-section search. The objective
// must be nondecreasing in lhs and monotone in p along every line
// lhs = a·p + b, the shape lhsBound has in p (both bounds of the package
// comment, margin included); maximize then evaluates only the samples
// whose interval bound could beat the best sample found so far.
func maximize(g *grid, objective func(p, lhs float64) float64) (float64, float64) {
	top := best{v: math.Inf(-1)}
	g.visit(0, 0, g.n, objective, &top)
	bestP, bestV := g.p(top.i), top.v
	eval := func(p float64) float64 { return objective(p, g.lhs(p)) }
	// Golden-section refinement within [bestP−step, bestP+step].
	step := g.step
	lo := math.Max(bestP-step, step/1024)
	hi := math.Min(bestP+step, g.pMax)
	const phi = 0.6180339887498949
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	fa, fb := eval(a), eval(b)
	for hi-lo > bisectTolerance {
		if fa < fb {
			lo, a, fa = a, b, fb
			b = lo + phi*(hi-lo)
			fb = eval(b)
		} else {
			hi, b, fb = b, a, fa
			a = hi - phi*(hi-lo)
			fa = eval(a)
		}
	}
	mid := (lo + hi) / 2
	v := eval(mid)
	if v < bestV { // refinement can only improve; keep the scan winner otherwise
		return bestP, bestV
	}
	return mid, v
}

// best is the incumbent of maximize's search: sample i with value v,
// i = 0 while no sample has beaten v = −Inf.
type best struct {
	i int
	v float64
}

// visit searches the samples in (lo, hi] for one that beats top; s is
// S(p(lo)), 0 at lo = 0. The interval's bound is the objective at
// lhsBound from p(lo) and s — the bandwidth bound when s < p(lo), the
// bound by S alone otherwise — taken at whichever end of the interval it
// is larger: along the bound the objective is monotone in p (see
// maximize). The interval is skipped when the bound cannot beat top: it
// is below top's value, or equal to it with every sample at a higher
// index.
func (g *grid) visit(lo int, s float64, hi int, objective func(p, lhs float64) float64, top *best) {
	if lo >= hi {
		return
	}
	pLo, first, last := g.p(lo), g.p(lo+1), g.p(hi)
	u := math.Max(objective(first, lhsBound(pLo, first, s)), objective(last, lhsBound(pLo, last, s)))
	if u < top.v || (u == top.v && lo+1 >= top.i) {
		return
	}
	mid := lo + (hi-lo+1)/2
	p := g.p(mid)
	sMid := g.quanta(p)
	// A greater value wins, and so does an equal one at a lower index,
	// as in a scan that keeps the first maximum. NaN never wins.
	if v := objective(p, p-sMid); v > top.v || (v == top.v && mid < top.i) {
		*top = best{i: mid, v: v}
	}
	g.visit(lo, s, mid-1, objective, top)
	g.visit(mid, sMid, hi, objective, top)
}
