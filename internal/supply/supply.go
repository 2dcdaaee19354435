// Package supply implements the supply functions of Section 3.1:
// Definition 1 (minimum time provided in any window of length t), the
// exact form of Lemma 1 for a mode slot, the linear lower bound of
// Eq. (3), and two extensions the paper points at — the Shin–Lee
// periodic resource model it cites for comparison, and general periodic
// slot patterns ("the same fault-tolerance service during more than one
// time quantum per period", Section 5).
package supply

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/analysis"
)

// Function is a supply function Z(t): the minimum amount of execution
// time a mode is guaranteed to receive in any interval of length t.
type Function interface {
	// Value returns Z(t). It is 0 for t ≤ 0, non-decreasing, and never
	// exceeds t.
	Value(t float64) float64
	// BoundedDelay returns the (α, Δ) linear abstraction of the supply:
	// the tightest pair such that Z(t) ≥ max{0, α(t−Δ)} for all t.
	BoundedDelay() analysis.Supply
}

// BoundedDelay is the linear supply lower bound Z'(t) = max{0, α(t−Δ)}
// of Eq. (3). It is its own bounded-delay abstraction.
type BoundedDelay analysis.Supply

// Value returns max{0, α(t−Δ)}.
func (b BoundedDelay) Value(t float64) float64 {
	return math.Max(0, b.Alpha*(t-b.Delta))
}

// BoundedDelay returns the (α, Δ) pair itself.
func (b BoundedDelay) BoundedDelay() analysis.Supply { return analysis.Supply(b) }

// Slot is the supply delivered by one statically-positioned slot of
// usable length Q per period P (the paper's mode slot, Lemma 1).
type Slot struct {
	P float64 // slot period
	Q float64 // usable slot length Q̃ = Q_k − O_k, with 0 ≤ Q ≤ P
}

// Validate checks 0 ≤ Q ≤ P and P > 0.
func (s Slot) Validate() error {
	if s.P <= 0 {
		return fmt.Errorf("supply: slot period %g must be positive", s.P)
	}
	if s.Q < 0 || s.Q > s.P {
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

// BoundedDelay returns α = Q̃/P, Δ = P − Q̃ (Eq. 2).
func (s Slot) BoundedDelay() analysis.Supply {
	return analysis.Supply{Alpha: s.Q / s.P, Delta: s.P - s.Q}
}

// PeriodicResource is the Shin–Lee periodic resource model Γ(Π, Θ): Θ
// units of time guaranteed somewhere within every period Π, with no
// control over the position. Its worst-case delay 2(Π − Θ) is larger
// than the static slot's Π − Θ, which quantifies what the paper's
// statically-positioned slots buy.
type PeriodicResource struct {
	Pi    float64 // resource period Π
	Theta float64 // budget Θ per period, 0 ≤ Θ ≤ Π
}

// Validate checks 0 ≤ Θ ≤ Π and Π > 0.
func (r PeriodicResource) Validate() error {
	if r.Pi <= 0 {
		return fmt.Errorf("supply: resource period %g must be positive", r.Pi)
	}
	if r.Theta < 0 || r.Theta > r.Pi {
		return fmt.Errorf("supply: budget %g outside [0, %g]", r.Theta, r.Pi)
	}
	return nil
}

// Value returns the Shin–Lee supply bound function
//
//	sbf(t) = ⌊x/Π⌋·Θ + max{0, x − Π·⌊x/Π⌋ − (Π − Θ)},  x = t − (Π − Θ)
//
// for t ≥ Π − Θ and 0 before that.
func (r PeriodicResource) Value(t float64) float64 {
	if r.Theta == 0 {
		return 0
	}
	x := t - (r.Pi - r.Theta)
	if x <= 0 {
		return 0
	}
	k := math.Floor(x / r.Pi) // continuous: both branches agree at k·Π
	return k*r.Theta + math.Max(0, x-k*r.Pi-(r.Pi-r.Theta))
}

// BoundedDelay returns α = Θ/Π, Δ = 2(Π − Θ).
func (r PeriodicResource) BoundedDelay() analysis.Supply {
	return analysis.Supply{Alpha: r.Theta / r.Pi, Delta: 2 * (r.Pi - r.Theta)}
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

// NewPattern validates and normalises (sorts) the intervals.
func NewPattern(p float64, ivs []Interval) (Pattern, error) {
	if p <= 0 {
		return Pattern{}, fmt.Errorf("supply: pattern period %g must be positive", p)
	}
	sorted := append([]Interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for i, iv := range sorted {
		if iv.Start < 0 || iv.End > p || iv.Start >= iv.End {
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

// BoundedDelay returns the tightest (α, Δ) abstraction of the pattern:
// α is the long-run rate Total()/P and Δ = max_t (t − Z(t)/α), computed
// exactly over the pattern's breakpoints.
func (pt Pattern) BoundedDelay() analysis.Supply {
	total := pt.Total()
	if total == 0 {
		return analysis.Supply{Alpha: 0, Delta: 0}
	}
	alpha := total / pt.P
	// t − Z(t)/α is piecewise linear with maxima where a starvation gap
	// ends, i.e. where the window [t0, t0+t] ends exactly at the start
	// of a service interval. Two periods of start points suffice.
	delta := 0.0
	for _, t0iv := range pt.Intervals {
		t0 := t0iv.End
		for period := 0.0; period <= 2*pt.P; period += pt.P {
			for _, iv := range pt.Intervals {
				start := iv.Start + period
				if start <= t0 {
					continue
				}
				x := start - t0
				if v := x - pt.supplied(t0, start)/alpha; v > delta {
					delta = v
				}
			}
		}
	}
	return analysis.Supply{Alpha: alpha, Delta: delta}
}

// SlotPattern returns the single-interval pattern equivalent to a slot
// of usable length q starting at the given offset within period p.
func SlotPattern(p, q, offset float64) (Pattern, error) {
	return NewPattern(p, []Interval{{Start: offset, End: offset + q}})
}
