package supply

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/task"
)

// This file analyses slot splitting — providing "the same
// fault-tolerance service during more than one time quantum per period"
// (the paper's Section 5 future-work item). Splitting a mode's quantum
// Q̃ into k equal sub-slots, one per 1/k-th of the period, keeps the
// rate α but cuts the worst-case starvation gap roughly by k, so less
// total quantum is needed — at the price of k mode switches (and k
// overheads) per period instead of one.
//
// The analysis is exact: a mode served by one statically positioned
// sub-slot in every frame of length P/k has, over the whole timeline, a
// periodic service pattern with period P/k, whose supply function
// Pattern computes exactly (the pattern is offset-invariant, so the
// in-frame position does not matter).

// SplitPattern returns the service pattern of a quantum q split into k
// equal sub-slots evenly spaced over period p.
func SplitPattern(p, q float64, k int) (Pattern, error) {
	if k < 1 {
		return Pattern{}, fmt.Errorf("supply: split count %d must be ≥ 1", k)
	}
	if q < 0 || q > p {
		return Pattern{}, fmt.Errorf("supply: quantum %g outside [0, %g]", q, p)
	}
	frame := p / float64(k)
	sub := q / float64(k)
	ivs := make([]Interval, 0, k)
	for i := 0; i < k; i++ {
		start := float64(i) * frame
		ivs = append(ivs, Interval{Start: start, End: start + sub})
	}
	return NewPattern(p, ivs)
}

// MinQSplit computes the minimum total usable quantum per period such
// that the task set is feasible under alg when the quantum is delivered
// as k evenly spaced sub-slots. k = 1 reduces to MinQExact. It returns
// ok = false when even the full period is insufficient.
func MinQSplit(s task.Set, alg analysis.Alg, p float64, k int) (q float64, ok bool, err error) {
	if !(p > 0) || math.IsInf(p, 0) {
		return 0, false, fmt.Errorf("supply: MinQSplit period P = %g must be positive and finite", p)
	}
	if k < 1 {
		return 0, false, fmt.Errorf("supply: split count %d must be ≥ 1", k)
	}
	if len(s) == 0 {
		return 0, true, nil
	}
	feasibleAt := func(q float64) (bool, error) {
		if q <= 0 {
			return false, nil
		}
		pat, err := SplitPattern(p, q, k)
		if err != nil {
			return false, err
		}
		return FeasibleExact(s, alg, pat)
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
