package supply

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
)

func TestSlotValidate(t *testing.T) {
	if err := (Slot{P: 2, Q: 1}).Validate(); err != nil {
		t.Errorf("valid slot rejected: %v", err)
	}
	for _, s := range []Slot{{P: 0, Q: 0}, {P: -1, Q: 0}, {P: 2, Q: -0.1}, {P: 2, Q: 2.1}} {
		if err := s.Validate(); err == nil {
			t.Errorf("slot %+v should be invalid", s)
		}
	}
}

func TestSlotValueLemma1(t *testing.T) {
	// P = 4, Q̃ = 1: Δ = 3. Z is 0 on [0,3], then climbs 1 unit per
	// period with plateaus.
	s := Slot{P: 4, Q: 1}
	cases := []struct{ t, want float64 }{
		{0, 0},
		{2.9, 0},
		{3, 0},
		{3.5, 0.5},
		{4, 1},
		{5, 1}, // j=1, plateau [4, 7)
		{6.9, 1},
		{7, 1},
		{7.5, 1.5},
		{8, 2},
	}
	for _, c := range cases {
		if got := s.Value(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Z(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestSlotProperties(t *testing.T) {
	// Z monotone, 0 ≤ Z(t) ≤ t, periodic increment Z(t+P) = Z(t) + Q,
	// and the linear bound of Eq. (3) with α = Q/P, Δ = P − Q (Eq. 2)
	// never exceeds the exact supply.
	f := func(rawP, rawQ, rawT uint16) bool {
		p := 0.5 + float64(rawP%64)/8
		q := float64(rawQ%64) / 64 * p
		tt := float64(rawT%2048) / 64
		s := Slot{P: p, Q: q}
		z := s.Value(tt)
		lin := analysis.Supply{Alpha: q / p, Delta: p - q}.Value(tt)
		const eps = 1e-9
		return z >= -eps && z <= tt+eps &&
			s.Value(tt+0.01) >= z-eps &&
			math.Abs(s.Value(tt+p)-(z+q)) < 1e-6 &&
			lin <= z+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// PeriodicResource is the Shin–Lee periodic resource model Γ(Π, Θ): Θ
// units of time guaranteed somewhere within every period Π, with no
// control over the position. Its worst-case delay 2(Π − Θ) is larger
// than the static slot's Π − Θ, which quantifies what the paper's
// statically-positioned slots buy (TestStaticSlotBeatsPeriodicResource).
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

func TestPeriodicResource(t *testing.T) {
	if err := (PeriodicResource{Pi: 4, Theta: 1}).Validate(); err != nil {
		t.Errorf("valid resource rejected: %v", err)
	}
	for _, r := range []PeriodicResource{{Pi: 0, Theta: 0}, {Pi: 2, Theta: 3}, {Pi: 2, Theta: -1}} {
		if err := r.Validate(); err == nil {
			t.Errorf("resource %+v should be invalid", r)
		}
	}
	r := PeriodicResource{Pi: 4, Theta: 1}
	// sbf is zero until Π−Θ = 3... and in the worst case the budget sits
	// at the start of one period and the end of the next: first supply
	// at t = 2(Π−Θ) = 6.
	if got := r.Value(6); got != 0 {
		t.Errorf("sbf(6) = %g, want 0", got)
	}
	if got := r.Value(7); math.Abs(got-1) > 1e-12 {
		t.Errorf("sbf(7) = %g, want 1", got)
	}
	bd := r.BoundedDelay()
	if bd.Alpha != 0.25 || bd.Delta != 6 {
		t.Errorf("BoundedDelay = %+v, want α=0.25 Δ=6", bd)
	}
	if (PeriodicResource{Pi: 4, Theta: 0}).Value(100) != 0 {
		t.Error("zero budget supplies nothing")
	}
}

func TestStaticSlotBeatsPeriodicResource(t *testing.T) {
	// Same rate, but the statically positioned slot has half the delay:
	// its supply dominates the periodic resource's everywhere.
	s := Slot{P: 4, Q: 1}
	r := PeriodicResource{Pi: 4, Theta: 1}
	for tt := 0.0; tt <= 40; tt += 0.125 {
		if s.Value(tt) < r.Value(tt)-1e-12 {
			t.Fatalf("slot supply %g below periodic-resource supply %g at t=%g",
				s.Value(tt), r.Value(tt), tt)
		}
	}
	if s.P-s.Q >= r.BoundedDelay().Delta { // the slot's Δ = P − Q (Eq. 2)
		t.Error("static slot should have strictly smaller delay")
	}
}

func TestNewPatternValidation(t *testing.T) {
	if _, err := NewPattern(0, nil); err == nil {
		t.Error("zero period should be rejected")
	}
	bad := [][]Interval{
		{{Start: -1, End: 1}},
		{{Start: 3, End: 5}},                     // End beyond period 4
		{{Start: 2, End: 2}},                     // empty interval
		{{Start: 0, End: 2}, {Start: 1, End: 3}}, // overlap
	}
	for _, ivs := range bad {
		if _, err := NewPattern(4, ivs); err == nil {
			t.Errorf("pattern %v should be rejected", ivs)
		}
	}
	p, err := NewPattern(4, []Interval{{Start: 2, End: 3}, {Start: 0, End: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Intervals[0].Start != 0 {
		t.Error("intervals should be sorted")
	}
	if p.Total() != 2 {
		t.Errorf("Total = %g, want 2", p.Total())
	}
}

func TestPatternMatchesSlot(t *testing.T) {
	// A single-interval pattern must reproduce Lemma 1 exactly,
	// regardless of the slot's offset within the period.
	for _, offset := range []float64{0, 0.7, 2.3} {
		pat, err := NewPattern(4, []Interval{{Start: offset, End: offset + 1}})
		if err != nil {
			t.Fatal(err)
		}
		slot := Slot{P: 4, Q: 1}
		for tt := 0.0; tt <= 20; tt += 0.0625 {
			if math.Abs(pat.Value(tt)-slot.Value(tt)) > 1e-9 {
				t.Fatalf("offset %g: pattern Z(%g) = %g, slot Z = %g",
					offset, tt, pat.Value(tt), slot.Value(tt))
			}
		}
	}
}

func TestPatternValueProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		p := 2 + rng.Float64()*6
		n := 1 + rng.Intn(3)
		var ivs []Interval
		cursor := 0.0
		for i := 0; i < n; i++ {
			gap := rng.Float64() * p / 8
			length := 0.1 + rng.Float64()*p/8
			if cursor+gap+length >= p {
				break
			}
			ivs = append(ivs, Interval{Start: cursor + gap, End: cursor + gap + length})
			cursor += gap + length
		}
		if len(ivs) == 0 {
			continue
		}
		pat, err := NewPattern(p, ivs)
		if err != nil {
			t.Fatal(err)
		}
		// A pattern serving Q per period never starves longer than
		// P − Q, so the linear bound α = Q/P, Δ = P − Q lies below it.
		lin := analysis.Supply{Alpha: pat.Total() / p, Delta: p - pat.Total()}
		prev := 0.0
		for tt := 0.0; tt <= 3*p; tt += p / 64 {
			z := pat.Value(tt)
			if z < prev-1e-9 {
				t.Fatalf("trial %d: Z not monotone at t=%g", trial, tt)
			}
			if z > tt+1e-9 {
				t.Fatalf("trial %d: Z(%g) = %g exceeds t", trial, tt, z)
			}
			if lv := lin.Value(tt); lv > z+1e-7 {
				t.Fatalf("trial %d: linear bound %g above exact %g at t=%g (α=%g Δ=%g)",
					trial, lv, z, tt, lin.Alpha, lin.Delta)
			}
			prev = z
		}
	}
}

func TestEmptyPattern(t *testing.T) {
	pat := Pattern{P: 4}
	if pat.Value(10) != 0 {
		t.Error("empty pattern supplies nothing")
	}
	if pat.Total() != 0 {
		t.Error("empty pattern has zero rate")
	}
}

// TestSupplyFloorsContinuous confirms that the floors in Slot.Value,
// PeriodicResource.Value and Pattern.supplied are harmless: each is
// continuous, so at float-rounded steps j·P, where a rounded floor can
// take either branch, the value moves by no more than rounding noise.
func TestSupplyFloorsContinuous(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	continuous := func(name string, f func(float64) float64, x float64) {
		t.Helper()
		v, tol := f(x), 1e-12*(1+x)
		for _, y := range []float64{math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
			if math.Abs(f(y)-v) > tol {
				t.Fatalf("%s jumps at the step %v: %v vs %v at %v", name, x, v, f(y), y)
			}
		}
	}
	for trial := 0; trial < 20000; trial++ {
		p := float64(1+rng.Intn(100000)) / 1e4
		q := p * rng.Float64()
		step := float64(float64(1+rng.Intn(100)) * p)
		continuous("Slot.Value", Slot{P: p, Q: q}.Value, step)
		r := PeriodicResource{Pi: p, Theta: q}
		continuous("PeriodicResource.Value", r.Value, step+(p-q))
		o := (p - q) * rng.Float64()
		pat, err := NewPattern(p, []Interval{{Start: o, End: o + math.Max(q, 1e-3*p)}})
		if err != nil {
			continue
		}
		length := p * 3 * rng.Float64()
		continuous("Pattern.supplied", func(x float64) float64 { return pat.supplied(x, x+length) }, step)
	}
}
