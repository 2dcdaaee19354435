package design

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/supply"
	"repro/internal/task"
)

// SplitSolution is a design in which every mode's quantum is delivered
// as k evenly spaced sub-slots per period instead of one contiguous
// slot — the paper's "more than one time quantum per period" extension.
// Each mode then pays its switch overhead k times per period.
type SplitSolution struct {
	// K is the number of sub-slots per mode per period.
	K int
	// P is the slot-cycle period.
	P float64
	// Quanta are the usable per-period totals Q̃_k (each delivered as K
	// pieces of Q̃_k/K).
	Quanta core.PerMode
	// Allocated is the fraction of the period consumed: (ΣQ̃ + K·O_tot)/P.
	Allocated float64
	// Slack is the unallocated time per period.
	Slack float64
}

// SolveSplitAt sizes the sub-slotted design at a fixed period. The
// period is cut into K frames of P/K; each frame holds one sub-slot per
// mode plus that mode's switch overhead, so the packing is feasible iff
// Σ_m (Q̃_m + K·O_m) ≤ P. Supply analysis is exact (Lemma 1 generalised
// to patterns); see internal/supply.
func SolveSplitAt(pr core.Problem, p float64, k int) (SplitSolution, error) {
	if err := pr.Validate(); err != nil {
		return SplitSolution{}, err
	}
	if k < 1 {
		return SplitSolution{}, fmt.Errorf("design: split count %d must be ≥ 1", k)
	}
	if !(p > 0) || math.IsInf(p, 0) {
		return SplitSolution{}, fmt.Errorf("design: period P = %g must be positive and finite", p)
	}
	var quanta core.PerMode
	for _, m := range task.Modes() {
		worst := 0.0
		for _, ch := range pr.Tasks.Channels(m) {
			q, ok, err := supply.MinQSplit(ch, pr.Alg, p, k)
			if err != nil {
				return SplitSolution{}, fmt.Errorf("design: mode %s: %w", m, err)
			}
			if !ok {
				return SplitSolution{}, fmt.Errorf("design: mode %s infeasible at P=%g with %d sub-slots", m, p, k)
			}
			if q > worst {
				worst = q
			}
		}
		quanta = quanta.With(m, worst)
	}
	consumed := quanta.Total() + float64(k)*pr.O.Total()
	if consumed > p+1e-9 {
		return SplitSolution{}, fmt.Errorf("design: P=%g infeasible with %d sub-slots: needs %.4f", p, k, consumed)
	}
	return SplitSolution{
		K:         k,
		P:         p,
		Quanta:    quanta,
		Allocated: consumed / p,
		Slack:     p - consumed,
	}, nil
}

// BestSplit tries k = 1…kMax at a fixed period and returns the split
// count that minimises the allocated bandwidth, exposing the trade-off
// between shorter starvation gaps (larger k helps) and repeated switch
// overheads (larger k hurts).
func BestSplit(pr core.Problem, p float64, kMax int) (SplitSolution, error) {
	if kMax < 1 {
		return SplitSolution{}, fmt.Errorf("design: kMax %d must be ≥ 1", kMax)
	}
	var best SplitSolution
	found := false
	var firstErr error
	for k := 1; k <= kMax; k++ {
		sol, err := SolveSplitAt(pr, p, k)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !found || sol.Allocated < best.Allocated {
			best, found = sol, true
		}
	}
	if !found {
		return SplitSolution{}, fmt.Errorf("design: no feasible split at P=%g (k ≤ %d): %w", p, kMax, firstErr)
	}
	return best, nil
}
