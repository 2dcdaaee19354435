package supply

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/task"
)

func TestMinQExactNeverAboveLinear(t *testing.T) {
	// The exact supply dominates its linear bound, so the exact minimum
	// quantum can never exceed the linear-bound minimum quantum (Eq. 6 /
	// Eq. 11). Check on all the paper's channels for both algorithms.
	s := task.PaperTaskSet()
	var channels []task.Set
	for _, m := range task.Modes() {
		for _, ch := range s.Channels(m) {
			if len(ch) > 0 {
				channels = append(channels, ch)
			}
		}
	}
	for _, ch := range channels {
		for _, alg := range []analysis.Alg{analysis.RM, analysis.EDF} {
			for _, p := range []float64{0.5, 1.0, 2.0, 2.966} {
				linear, err := analysis.MinQ(ch, alg, p)
				if err != nil {
					t.Fatal(err)
				}
				exact, ok, err := MinQExact(ch, alg, p)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					if linear < p {
						t.Errorf("%s %v P=%g: exact says infeasible but linear minQ %g < P", alg, ch.Names(), p, linear)
					}
					continue
				}
				if exact > linear+1e-6 {
					t.Errorf("%s %v P=%g: exact minQ %g above linear minQ %g", alg, ch.Names(), p, exact, linear)
				}
			}
		}
	}
}

func TestMinQExactBoundary(t *testing.T) {
	// Single task (1, 4, 4) under EDF on slot period 2: the exact test
	// needs W(4)=1 ≤ Z(4). With Z from Lemma 1, Z(4) = q... j=⌊4/2⌋=2,
	// 4 ∈ [4, 6−q) for q<2 → Z(4) = 2q, so q = 0.5 suffices exactly.
	s := task.Set{{Name: "a", C: 1, T: 4, D: 4, Mode: task.NF}}
	q, ok, err := MinQExact(s, analysis.EDF, 2)
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if math.Abs(q-0.5) > 1e-6 {
		t.Errorf("exact minQ = %g, want 0.5", q)
	}
	// The linear bound needs (√12−2)/2 ≈ 0.732: strictly more.
	lin, err := analysis.MinQ(s, analysis.EDF, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lin <= q {
		t.Errorf("linear minQ %g should exceed exact %g", lin, q)
	}
}

func TestMinQExactNeedsFullPeriod(t *testing.T) {
	// A task with C = D can only be served by an uninterrupted supply:
	// the minimal quantum is the whole period (Q = P is a dedicated
	// processor, any smaller Q introduces a starvation gap before D).
	s := task.Set{{Name: "a", C: 2, T: 4, D: 2, Mode: task.NF}}
	q, ok, err := MinQExact(s, analysis.EDF, 3)
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if math.Abs(q-3) > 1e-6 {
		t.Errorf("minimal quantum should be the full period 3, got %g", q)
	}
}

func TestMinQExactInfeasible(t *testing.T) {
	// An overloaded set (U = 1.25) is infeasible even on Q = P.
	s := task.Set{
		{Name: "a", C: 3, T: 4, D: 4, Mode: task.NF},
		{Name: "b", C: 2, T: 4, D: 4, Mode: task.NF},
	}
	q, ok, err := MinQExact(s, analysis.EDF, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("overloaded set should be infeasible, got q=%g", q)
	}
	if q != 3 {
		t.Errorf("infeasible MinQExact should report P, got %g", q)
	}
}

func TestMinQExactEmptyAndErrors(t *testing.T) {
	q, ok, err := MinQExact(nil, analysis.EDF, 1)
	if err != nil || !ok || q != 0 {
		t.Errorf("empty set: got %g, %v, %v", q, ok, err)
	}
	if _, _, err := MinQExact(task.Set{{C: 1, T: 4, D: 4}}, analysis.EDF, 0); err == nil {
		t.Error("P = 0 should error")
	}
}

func TestFeasibleExactDispatch(t *testing.T) {
	s := task.Set{{Name: "a", C: 1, T: 4, D: 4, Mode: task.NF}}
	z := Slot{P: 2, Q: 1}
	for _, alg := range []analysis.Alg{analysis.RM, analysis.DM, analysis.EDF} {
		ok, err := FeasibleExact(s, alg, z)
		if err != nil || !ok {
			t.Errorf("%s: should be feasible on half-rate slot (%v, %v)", alg, ok, err)
		}
	}
	if _, err := FeasibleExactFP(s, analysis.EDF, z); err == nil {
		t.Error("FeasibleExactFP must reject EDF")
	}
}

func TestFeasibleExactTighterThanLinear(t *testing.T) {
	// A supply that the linear bound rejects but the exact test accepts:
	// the 0.5-quantum slot from TestMinQExactBoundary.
	s := task.Set{{Name: "a", C: 1, T: 4, D: 4, Mode: task.NF}}
	z := Slot{P: 2, Q: 0.5}
	okExact, err := FeasibleExactEDF(s, z)
	if err != nil || !okExact {
		t.Fatalf("exact test should accept (got %v, %v)", okExact, err)
	}
	okLin, err := analysis.FeasibleEDF(s, z.BoundedDelay())
	if err != nil {
		t.Fatal(err)
	}
	if okLin {
		t.Error("linear bound should reject Q=0.5 (it needs ≈0.732)")
	}
}
