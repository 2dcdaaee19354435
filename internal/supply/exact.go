package supply

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/points"
	"repro/internal/task"
)

// This file carries the "full consideration of the exact Z(t)" that the
// paper declares conceptually straightforward but tedious (end of
// Section 3.1): the schedulability conditions of Theorems 1 and 2 with
// the exact supply function in place of its linear lower bound, and the
// corresponding exact minimum quantum. Because Z(t) ≥ Z'(t), the exact
// test admits every solution the linear one admits, and usually smaller
// quanta; the ablation benchmark quantifies the difference.

// FeasibleExactFP checks the Theorem 1 condition with an arbitrary
// supply function: for every task some scheduling point t must satisfy
// W_i(t) ≤ Z(t). alg must be RM or DM.
func FeasibleExactFP(s task.Set, alg analysis.Alg, z Function) (bool, error) {
	if alg != analysis.RM && alg != analysis.DM {
		return false, fmt.Errorf("supply: FeasibleExactFP needs a fixed-priority algorithm, got %s", alg)
	}
	var ordered task.Set
	switch alg {
	case analysis.RM:
		ordered = s.SortedRM()
	case analysis.DM:
		ordered = s.SortedDM()
	}
	for i, tk := range ordered {
		ok := false
		for _, t := range points.FixedPriority(ordered[:i], tk.D) {
			if analysis.RequestBound(tk.C, ordered[:i], t) <= z.Value(t)+1e-12 {
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

// FeasibleExactEDF checks the Theorem 2 condition with an arbitrary
// supply function: every deadline t up to the hyperperiod must satisfy
// W(t) ≤ Z(t).
func FeasibleExactEDF(s task.Set, z Function) (bool, error) {
	if len(s) == 0 {
		return true, nil
	}
	h, err := s.Hyperperiod(analysis.HyperperiodDenominator)
	if err != nil {
		return false, err
	}
	dls, err := points.Deadlines(s, h)
	if err != nil {
		return false, err
	}
	for _, t := range dls {
		if analysis.DemandBound(s, t) > z.Value(t)+1e-12 {
			return false, nil
		}
	}
	return true, nil
}

// FeasibleExact dispatches on the algorithm.
func FeasibleExact(s task.Set, alg analysis.Alg, z Function) (bool, error) {
	if alg == analysis.EDF {
		return FeasibleExactEDF(s, z)
	}
	return FeasibleExactFP(s, alg, z)
}

// minQExactTolerance is the absolute bisection tolerance of MinQExact.
const minQExactTolerance = 1e-10

// MinQExact computes the minimum usable slot length Q̃ such that the
// task set is feasible under alg on the exact slot supply Slot{P, Q̃}.
// Feasibility is monotone in Q̃ (the supply grows pointwise), so a
// bisection converges. It returns P (and ok = false) when even the full
// period is insufficient.
func MinQExact(s task.Set, alg analysis.Alg, p float64) (q float64, ok bool, err error) {
	if !(p > 0) || math.IsInf(p, 0) {
		return 0, false, fmt.Errorf("supply: MinQExact period P = %g must be positive and finite", p)
	}
	if len(s) == 0 {
		return 0, true, nil
	}
	feasibleAt := func(q float64) (bool, error) {
		return FeasibleExact(s, alg, Slot{P: p, Q: q})
	}
	full, err := feasibleAt(p)
	if err != nil {
		return 0, false, err
	}
	if !full {
		return p, false, nil
	}
	lo, hi := 0.0, p
	for hi-lo > minQExactTolerance {
		mid := (lo + hi) / 2
		okMid, err := feasibleAt(mid)
		if err != nil {
			return 0, false, err
		}
		if okMid {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}
