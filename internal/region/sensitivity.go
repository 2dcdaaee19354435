package region

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/task"
)

// Sensitivity analysis: how much computational growth a chosen design
// point can absorb. The critical scaling factor is the classical metric
// — multiply every worst-case computation time by f and find the
// largest f that keeps the period feasible. A designer reading Figure 4
// wants exactly this number for the period they are about to commit to.

// scalingTolerance is the bisection tolerance of CriticalScaling.
const scalingTolerance = 1e-6

// scaleC returns a copy of the set with every C (and nothing else)
// multiplied by f. Tasks whose scaled C would exceed their deadline make
// the set infeasible; the caller detects that via validation.
func scaleC(s task.Set, f float64) task.Set {
	out := make(task.Set, len(s))
	for i, t := range s {
		t.C *= f
		out[i] = t
	}
	return out
}

// feasibleScaled reports whether the problem stays feasible at period p
// when all computation times are scaled by f.
func feasibleScaled(pr core.Problem, p, f float64) (bool, error) {
	scaled := scaleC(pr.Tasks, f)
	for _, t := range scaled {
		if t.C > t.D {
			return false, nil // a job longer than its deadline can never fit
		}
	}
	sp := core.Problem{Tasks: scaled, Alg: pr.Alg, O: pr.O}
	return sp.FeasiblePeriod(p)
}

// CriticalScaling returns the largest factor f such that the period p
// remains feasible with every computation time multiplied by f. It
// returns f < 1 when p is already infeasible for the nominal set (the
// factor then says how much the workload must shrink). The result is
// exact to scalingTolerance.
func CriticalScaling(pr core.Problem, p float64) (float64, error) {
	if err := pr.Validate(); err != nil {
		return 0, err
	}
	if !(p > 0) || math.IsInf(p, 0) {
		return 0, fmt.Errorf("region: period P = %g must be positive and finite", p)
	}
	// Establish a bracket [lo feasible, hi infeasible].
	lo, hi := 0.0, 1.0
	ok, err := feasibleScaled(pr, p, 1)
	if err != nil {
		return 0, err
	}
	if ok {
		lo = 1
		for hi = 2; ; hi *= 2 {
			ok, err := feasibleScaled(pr, p, hi)
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			lo = hi
			if hi > 1024 {
				return 0, fmt.Errorf("region: scaling unbounded at P=%g (degenerate problem)", p)
			}
		}
	}
	for hi-lo > scalingTolerance {
		mid := (lo + hi) / 2
		ok, err := feasibleScaled(pr, p, mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
