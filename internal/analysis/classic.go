package analysis

import (
	"math"

	"repro/internal/task"
)

// Classical full-processor schedulability tests. These are the α = 1,
// Δ = 0 specialisations of the theorems in analysis.go: response-time
// analysis for fixed priorities, and Theorem 2 on the full supply (the
// processor demand criterion) for EDF. The automatic partitioner
// (internal/partition) runs them through Schedulable as admission
// tests; property tests use them as cross-checks of the supply-based
// conditions.

// rtaMaxIterations bounds the response-time fixed-point iteration; it is
// reached only for pathological inputs (utilisation extremely close to 1
// with incommensurate periods).
const rtaMaxIterations = 1_000_000

// ResponseTime computes the worst-case response time of a task with
// computation c under interference from the higher-priority tasks hp on
// a dedicated processor, by the standard fixed-point iteration
//
//	R = c + Σ_j ⌈R/T_j⌉ C_j.
//
// It returns +Inf if the iteration exceeds the deadline bound given
// (pass the task's deadline; the fixed point is only sought up to it,
// which is sufficient for a schedulability decision).
func ResponseTime(c float64, hp task.Set, bound float64) float64 {
	r := c
	for iter := 0; iter < rtaMaxIterations; iter++ {
		next := c
		for _, h := range hp {
			next += releases(r, h.T) * h.C
		}
		if next == r {
			return r
		}
		if next > bound {
			return math.Inf(1)
		}
		r = next
	}
	return math.Inf(1)
}

// SchedulableRTA reports whether the task set is schedulable by the
// fixed-priority order of alg (RM or DM) on a dedicated processor,
// using exact response-time analysis.
func SchedulableRTA(s task.Set, alg Alg) bool {
	if alg != RM && alg != DM {
		return false
	}
	ordered := alg.sorted(s)
	for i, tk := range ordered {
		if ResponseTime(tk.C, ordered[:i], tk.D) > tk.D {
			return false
		}
	}
	return true
}

// Schedulable reports whether the set is schedulable on a dedicated
// processor under alg, using the exact test for that algorithm (RTA for
// fixed priorities, processor demand for EDF). EDF may fail with an
// error when the hyperperiod is not representable.
func Schedulable(s task.Set, alg Alg) (bool, error) {
	if alg == EDF {
		return FeasibleEDF(s, Full)
	}
	return SchedulableRTA(s, alg), nil
}
