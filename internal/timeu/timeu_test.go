package timeu

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0},
		{0, 5, 5},
		{5, 0, 5},
		{12, 8, 4},
		{8, 12, 4},
		{7, 13, 1},
		{-12, 8, 4},
		{12, -8, 4},
		{-12, -8, 4},
		{1, 1, 1},
		{100, 100, 100},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCM(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 5, 0},
		{5, 0, 0},
		{4, 6, 12},
		{6, 4, 12},
		{7, 13, 91},
		{1, 9, 9},
		{10, 10, 10},
	}
	for _, c := range cases {
		if got, err := LCM(c.a, c.b); got != c.want || err != nil {
			t.Errorf("LCM(%d, %d) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
}

func TestLCMOverflowErrors(t *testing.T) {
	if l, err := LCM(math.MaxInt64-1, math.MaxInt64-2); err == nil {
		t.Fatalf("LCM of two huge coprimes = %d, want an overflow error", l)
	}
	// The product of three scaled periods that are valid on their own.
	l, err := LCM(7000001, 5000003)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LCM(l, 3000007); err == nil {
		t.Error("LCM(35000026000003, 3000007) should overflow")
	}
}

func TestScaledPeriodRange(t *testing.T) {
	if r, err := ScaledPeriod(9.2e12, 1_000_000); err != nil || r != 9_200_000_000_000_000_000 {
		t.Errorf("ScaledPeriod(9.2e12, 1e6) = %d, %v; want 9.2e18", r, err)
	}
	for _, p := range []float64{1e13, 1e300, math.Inf(1), math.NaN()} {
		if r, err := ScaledPeriod(p, 1_000_000); err == nil {
			t.Errorf("ScaledPeriod(%g, 1e6) = %d, want an error", p, r)
		}
	}
}

// TestScaledPeriodNotPositive pins the rejection of a period that is
// not positive and of a zero denominator, which scales every period to
// zero.
func TestScaledPeriodNotPositive(t *testing.T) {
	for _, c := range []struct {
		p   float64
		den int64
	}{{-2, 1}, {0, 1}, {2, 0}} {
		r, err := ScaledPeriod(c.p, c.den)
		if err == nil || !strings.Contains(err.Error(), "not positive") {
			t.Errorf("ScaledPeriod(%g, %d) = %d, %v; want a not-positive error", c.p, c.den, r, err)
		}
	}
}

func TestGCDLCMProperty(t *testing.T) {
	// gcd(a,b) * lcm(a,b) == a*b for positive a, b.
	f := func(a, b uint16) bool {
		x, y := int64(a)+1, int64(b)+1
		l, err := LCM(x, y)
		return err == nil && GCD(x, y)*l == x*y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTicksConversions(t *testing.T) {
	if FromUnits(1.0) != Scale {
		t.Errorf("FromUnits(1.0) = %d, want %d", FromUnits(1.0), Scale)
	}
	if FromUnits(2.966).Units() != 2.966 {
		t.Errorf("round-trip of 2.966 = %g", FromUnits(2.966).Units())
	}
	u := 0.1 + 0.2 // 0.30000000000000004
	if FromUnitsUp(u) < FromUnits(0.3) {
		t.Error("FromUnitsUp must not round below the value")
	}
	if FromUnitsDown(1.0000000001) != Scale {
		t.Errorf("FromUnitsDown(1+eps) = %d, want %d", FromUnitsDown(1.0000000001), Scale)
	}
}

func TestTicksRoundingDirections(t *testing.T) {
	f := func(raw uint32) bool {
		u := float64(raw) / 1024
		up, down := FromUnitsUp(u), FromUnitsDown(u)
		return down <= up && down.Units() <= u+1e-12 && up.Units() >= u-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTicksString(t *testing.T) {
	if got := FromUnits(2.966).String(); got != "2.966000000" {
		t.Errorf("String() = %q", got)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0+1e-10, 1e-9) {
		t.Error("values within tol should compare equal")
	}
	if AlmostEqual(1.0, 1.1, 1e-3) {
		t.Error("values outside tol should not compare equal")
	}
}
