package analysis

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/task"
)

func TestResponseTimeTextbook(t *testing.T) {
	// Classic example: τ1=(1,4), τ2=(2,6), τ3=(3,12).
	// R1 = 1; R2 = 2 + ⌈R2/4⌉·1 → 3; R3 = 3 + ⌈R/4⌉ + 2⌈R/6⌉ → 3+1+2=6,
	// then 3+2+2=7, 3+2+4=9, 3+3+4=10, 3+3+4=10 fixed point.
	hp := task.Set{{C: 1, T: 4, D: 4}, {C: 2, T: 6, D: 6}}
	if r := ResponseTime(1, nil, 4); r != 1 {
		t.Errorf("R1 = %g, want 1", r)
	}
	if r := ResponseTime(2, hp[:1], 6); r != 3 {
		t.Errorf("R2 = %g, want 3", r)
	}
	if r := ResponseTime(3, hp, 12); r != 10 {
		t.Errorf("R3 = %g, want 10", r)
	}
}

func TestResponseTimeExceedsBound(t *testing.T) {
	hp := task.Set{{C: 2, T: 4, D: 4}}
	// The fixed point is R = 7 (3 + 2⌈7/4⌉); with a deadline bound of 6
	// the iteration must give up and report +Inf.
	if r := ResponseTime(3, hp, 6); !math.IsInf(r, 1) {
		t.Errorf("response time beyond its bound should be +Inf, got %g", r)
	}
	if r := ResponseTime(3, hp, 8); r != 7 {
		t.Errorf("response time = %g, want 7", r)
	}
}

func TestSchedulableRTA(t *testing.T) {
	good := task.Set{
		{Name: "a", C: 1, T: 4, D: 4},
		{Name: "b", C: 2, T: 6, D: 6},
		{Name: "c", C: 3, T: 12, D: 12},
	}
	if !SchedulableRTA(good, RM) {
		t.Error("textbook set should be RM schedulable")
	}
	bad := task.Set{
		{Name: "a", C: 2, T: 4, D: 4},
		{Name: "b", C: 3, T: 6, D: 6},
	}
	if SchedulableRTA(bad, RM) {
		t.Error("U=1 with these periods should fail RM")
	}
	if SchedulableRTA(good, EDF) {
		t.Error("SchedulableRTA must reject EDF")
	}
}

func TestSchedulableDMConstrainedDeadlines(t *testing.T) {
	// DM handles a short-deadline low-rate task correctly where RM fails:
	// τa=(2, 10, 3), τb=(2, 4, 4). RM gives τb priority (T=4 < 10), so
	// τa sees R = 2+2 = 4 > 3. DM gives τa priority (D=3 < 4) and both fit.
	s := task.Set{
		{Name: "a", C: 2, T: 10, D: 3},
		{Name: "b", C: 2, T: 4, D: 4},
	}
	if SchedulableRTA(s, RM) {
		t.Error("RM should fail this constrained-deadline set")
	}
	if !SchedulableRTA(s, DM) {
		t.Error("DM should schedule this set")
	}
}

func TestSchedulableEDFDemand(t *testing.T) {
	full := task.Set{
		{Name: "a", C: 2, T: 4, D: 4},
		{Name: "b", C: 3, T: 6, D: 6},
	}
	ok, err := Schedulable(full, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("U=1 implicit-deadline set is EDF schedulable")
	}
	over := task.Set{{Name: "a", C: 5, T: 4, D: 4}}
	if err := over.Validate(); err == nil {
		t.Fatal("overloaded task should not validate") // sanity of fixture
	}
	// Constrained deadlines concentrating demand: at t = 3.5 both jobs
	// (2 + 2 = 4 units) are due but only 3.5 time units have elapsed.
	tight := task.Set{
		{Name: "a", C: 2, T: 4, D: 3},
		{Name: "b", C: 2, T: 4, D: 3.5},
	}
	ok, err = Schedulable(tight, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("demand 4 at t=3.5 should fail the demand criterion")
	}
}

func TestClassicMatchesSupplyTheorems(t *testing.T) {
	// On a dedicated processor (α=1, Δ=0) the supply-based theorems must
	// agree with the classical tests on random sets.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		s := randomSet(rng, 1+rng.Intn(4))
		gotRTA := SchedulableRTA(s, RM)
		gotThm1, err := FeasibleFP(s, RM, Full)
		if err != nil {
			t.Fatal(err)
		}
		if gotRTA != gotThm1 {
			t.Errorf("trial %d: RTA=%v but Theorem1(Full)=%v for %v", trial, gotRTA, gotThm1, s)
		}
		gotPDC, err := Schedulable(s, EDF)
		if err != nil {
			t.Fatal(err)
		}
		gotThm2, err := FeasibleEDF(s, Full)
		if err != nil {
			t.Fatal(err)
		}
		if gotPDC != gotThm2 {
			t.Errorf("trial %d: PDC=%v but Theorem2(Full)=%v", trial, gotPDC, gotThm2)
		}
		// Optimality ordering: RM schedulable ⇒ EDF schedulable.
		if gotRTA && !gotPDC {
			t.Errorf("trial %d: RM schedulable but EDF not, impossible (%v)", trial, s)
		}
	}
}

func TestScheduleDispatch(t *testing.T) {
	s := task.Set{{Name: "a", C: 1, T: 4, D: 4}}
	for _, alg := range []Alg{RM, DM, EDF} {
		ok, err := Schedulable(s, alg)
		if err != nil || !ok {
			t.Errorf("%s: trivial set should be schedulable (%v, %v)", alg, ok, err)
		}
	}
}
