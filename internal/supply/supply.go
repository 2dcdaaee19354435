// Package supply implements the supply functions of Section 3.1:
// Definition 1 (minimum time provided in any window of length t), the
// exact form of Lemma 1 for a mode slot, and general periodic slot
// patterns, an extension the paper points at ("the same fault-tolerance
// service during more than one time quantum per period", Section 5),
// which internal/layout builds. The linear lower bound of Eq. (3) is
// analysis.Supply. The comparison with the Shin–Lee periodic resource
// model the paper cites lives in this package's tests.
package supply

import (
	"fmt"
	"math"
	"sort"
)

// Function is a supply function Z(t): the minimum amount of execution
// time a mode is guaranteed to receive in any interval of length t.
type Function interface {
	// Value returns Z(t). It is 0 for t ≤ 0, non-decreasing, and never
	// exceeds t.
	Value(t float64) float64
}

// Slot is the supply delivered by one statically-positioned slot of
// usable length Q per period P (the paper's mode slot, Lemma 1).
type Slot struct {
	P float64 // slot period
	Q float64 // usable slot length Q̃ = Q_k − O_k, with 0 ≤ Q ≤ P
}

// Validate checks that P is positive and finite and Q lies in [0, P].
func (s Slot) Validate() error {
	if !(s.P > 0) || math.IsInf(s.P, 0) {
		return fmt.Errorf("supply: slot period %g must be positive and finite", s.P)
	}
	if !(s.Q >= 0 && s.Q <= s.P) {
		return fmt.Errorf("supply: usable slot length %g outside [0, %g]", s.Q, s.P)
	}
	return nil
}

// Value returns the exact supply function of Lemma 1:
//
//	Z(t) = j·Q̃                 if t ∈ [jP, (j+1)P − Q̃)
//	     = t − (j+1)(P − Q̃)    otherwise,     j = ⌊t/P⌋.
func (s Slot) Value(t float64) float64 {
	if t <= 0 || s.Q == 0 {
		return 0
	}
	j := math.Floor(t / s.P) // continuous: both branches agree at j·P
	if t < (j+1)*s.P-s.Q {
		return j * s.Q
	}
	return t - (j+1)*(s.P-s.Q)
}

// Interval is a half-open slice [Start, End) of a pattern period during
// which the mode executes.
type Interval struct {
	Start, End float64
}

// Length returns End − Start.
func (iv Interval) Length() float64 { return iv.End - iv.Start }

// Pattern is a static periodic time partition: within every period P the
// mode is served during the given disjoint intervals. It generalises
// Slot to several quanta per period — the "more than one time quantum
// per period" extension of the paper's Section 5.
type Pattern struct {
	P         float64
	Intervals []Interval
}

// NewPattern validates and normalises (sorts) the intervals: P must be
// positive and finite, and 0 ≤ start < end ≤ P for each interval.
func NewPattern(p float64, ivs []Interval) (Pattern, error) {
	if !(p > 0) || math.IsInf(p, 0) {
		return Pattern{}, fmt.Errorf("supply: pattern period %g must be positive and finite", p)
	}
	sorted := append([]Interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for i, iv := range sorted {
		if !(iv.Start >= 0 && iv.Start < iv.End && iv.End <= p) {
			return Pattern{}, fmt.Errorf("supply: interval [%g, %g) invalid for period %g", iv.Start, iv.End, p)
		}
		if i > 0 && iv.Start < sorted[i-1].End {
			return Pattern{}, fmt.Errorf("supply: intervals [%g,%g) and [%g,%g) overlap",
				sorted[i-1].Start, sorted[i-1].End, iv.Start, iv.End)
		}
	}
	return Pattern{P: p, Intervals: sorted}, nil
}

// Total returns the supplied time per period.
func (pt Pattern) Total() float64 {
	total := 0.0
	for _, iv := range pt.Intervals {
		total += iv.Length()
	}
	return total
}

// supplied returns the service available in the absolute window
// [from, to) given the pattern repeats with period P.
func (pt Pattern) supplied(from, to float64) float64 {
	if to <= from {
		return 0
	}
	// Shift into the first period.
	base := math.Floor(from/pt.P) * pt.P // continuous: any base within a period of from works
	from -= base
	to -= base
	total := 0.0
	for period := 0.0; base+period < base+to; period += pt.P {
		for _, iv := range pt.Intervals {
			s, e := iv.Start+period, iv.End+period
			lo, hi := math.Max(s, from), math.Min(e, to)
			if hi > lo {
				total += hi - lo
			}
		}
		if period > to {
			break
		}
	}
	return total
}

// Value returns the exact supply function of the pattern: the minimum of
// supplied(t0, t0+t) over all window placements t0. The minimum is
// attained with t0 at the end of some service interval, so only those
// candidates are examined.
func (pt Pattern) Value(t float64) float64 {
	if t <= 0 || len(pt.Intervals) == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, iv := range pt.Intervals {
		if v := pt.supplied(iv.End, iv.End+t); v < min {
			min = v
		}
	}
	return min
}
