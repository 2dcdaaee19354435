// Package timeu provides the time representation shared by the analysis
// and the simulator.
//
// The schedulability analysis works on float64 "time units" (the paper's
// task periods are small integers but the derived quanta involve square
// roots, e.g. Q̃_FT = 0.820). The discrete-event simulator instead runs
// on an integer tick clock so that event ordering is exact and runs are
// reproducible. One time unit corresponds to Scale ticks.
//
// Conversions between the two domains carry an explicit rounding
// direction because the direction matters for safety: a slot length must
// never be rounded below its analytic minimum, while a period must never
// be rounded above the value the quanta were computed for.
package timeu

import (
	"fmt"
	"math"
)

// Scale is the number of simulator ticks per analysis time unit.
// With int64 ticks and Scale = 1e9 the simulator can represent about
// 9.2e9 time units, far beyond any hyperperiod used here.
const Scale = 1_000_000_000

// Ticks is a point in simulated time or a duration, in integer ticks.
type Ticks int64

// FromUnits converts a float64 amount of time units to Ticks, rounding
// to nearest. Use FromUnitsUp / FromUnitsDown when the rounding
// direction is safety-relevant.
func FromUnits(u float64) Ticks { return Ticks(math.Round(u * Scale)) }

// FromUnitsUp converts rounding up (never returns fewer ticks than u).
func FromUnitsUp(u float64) Ticks { return Ticks(math.Ceil(u * Scale)) }

// FromUnitsDown converts rounding down (never returns more ticks than u).
func FromUnitsDown(u float64) Ticks { return Ticks(math.Floor(u * Scale)) }

// Units converts Ticks back to float64 time units.
func (t Ticks) Units() float64 { return float64(t) / Scale }

// String renders the tick count in time units with full precision where
// it is exact, e.g. "2.966000000".
func (t Ticks) String() string { return fmt.Sprintf("%.9f", t.Units()) }

// GCD returns the greatest common divisor of a and b. GCD(0, b) = b.
func GCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, or 0 if either is 0.
// A multiple beyond the int64 range is an error: task periods whose
// hyperperiod cannot be represented in ticks cannot be analysed.
func LCM(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	g := GCD(a, b)
	q := a / g
	r := q * b
	if r/b != q {
		return 0, fmt.Errorf("timeu: LCM(%d, %d) overflows int64", a, b)
	}
	if r < 0 {
		return -r, nil
	}
	return r, nil
}

// AlmostEqual reports whether a and b differ by at most tol.
func AlmostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// ScaledPeriod converts a float64 period to its integer numerator over
// the given denominator: the period must be an integral multiple of
// 1/den to within 1e-9 relative, positive, and its numerator must fit
// in an int64 (a denominator that is not positive makes the numerator
// not positive). Folding the numerators with LCM gives an exact integer
// hyperperiod, which task.Set.Hyperperiod and the compiled EDF
// profiles do; an incremental consumer folds one more period into it
// without re-parsing the whole set.
func ScaledPeriod(p float64, den int64) (int64, error) {
	scaled := p * float64(den)
	r := math.Round(scaled)
	if math.Abs(scaled-r) > 1e-9*math.Max(1, math.Abs(scaled)) {
		return 0, fmt.Errorf("timeu: period %g is not a multiple of 1/%d", p, den)
	}
	if !(r > 0) {
		return 0, fmt.Errorf("timeu: period %g is not positive", p)
	}
	if r >= math.MaxInt64 { // float64(math.MaxInt64) is 2^63, the first value out of range
		return 0, fmt.Errorf("timeu: period %g is beyond the int64 range over 1/%d", p, den)
	}
	return int64(r), nil
}
