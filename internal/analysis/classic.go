package analysis

import (
	"math"

	"repro/internal/task"
)

// Classical full-processor schedulability tests. These are the α = 1,
// Δ = 0 specialisations of the theorems in analysis.go, implemented in
// their standard, cheaper forms. They are used by the automatic
// partitioner (internal/partition) as admission tests and by property
// tests as cross-checks of the supply-based conditions.

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

// SchedulableEDFDemand reports whether the task set is schedulable by
// EDF on a dedicated processor using the processor-demand criterion:
// U ≤ 1 and W(t) ≤ t at every deadline up to the hyperperiod.
func SchedulableEDFDemand(s task.Set) (bool, error) {
	return FeasibleEDF(s, Full)
}

// LiuLaylandBound returns the RM utilisation bound n(2^{1/n} − 1) for n
// tasks. Any implicit-deadline set with U below the bound is RM
// schedulable; the bound tends to ln 2 ≈ 0.693 for large n.
func LiuLaylandBound(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * (math.Pow(2, 1/float64(n)) - 1)
}

// HyperbolicBound reports whether the implicit-deadline set passes the
// hyperbolic RM test of Bini–Buttazzo: Π (U_i + 1) ≤ 2. It is tighter
// than Liu–Layland but still only sufficient.
func HyperbolicBound(s task.Set) bool {
	prod := 1.0
	for _, t := range s {
		prod *= t.Utilization() + 1
	}
	return prod <= 2
}

// Schedulable reports whether the set is schedulable on a dedicated
// processor under alg, using the exact test for that algorithm (RTA for
// fixed priorities, processor demand for EDF). EDF may fail with an
// error when the hyperperiod is not representable.
func Schedulable(s task.Set, alg Alg) (bool, error) {
	if alg == EDF {
		return SchedulableEDFDemand(s)
	}
	return SchedulableRTA(s, alg), nil
}
