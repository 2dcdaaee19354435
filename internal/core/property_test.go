package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/supply"
	"repro/internal/task"
)

// Property-based invariants of the integration layer (testing/quick).

func TestLHSNeverExceedsPeriod(t *testing.T) {
	// lhs(P) = P − Σ minQ ≤ P, with equality only for an empty problem.
	pr := paperProblem()
	f := func(raw uint16) bool {
		p := 0.05 + float64(raw%4096)/512 // 0.05 … 8.05
		lhs, err := pr.LHS(p)
		return err == nil && lhs <= p+1e-9 && lhs < p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinQuantaMonotoneInPeriod(t *testing.T) {
	// Every mode's minimum quantum grows with the period (longer
	// starvation gaps need longer slots).
	pr := paperProblem()
	f := func(raw uint16) bool {
		p := 0.1 + float64(raw%2048)/512
		q1, err1 := pr.MinQuanta(p)
		q2, err2 := pr.MinQuanta(p + 0.25)
		if err1 != nil || err2 != nil {
			return false
		}
		for _, m := range task.Modes() {
			if q2.Of(m) < q1.Of(m)-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestConfigSupplyIdentities(t *testing.T) {
	// α_k·P + Δ_k = P for every mode of every valid configuration
	// (Eq. 2), and the config's linear supply never exceeds the exact
	// supply of Lemma 1 for the same slot.
	f := func(rawP, rawQ1, rawQ2, rawQ3 uint8) bool {
		p := 1 + float64(rawP%16)
		qs := [3]float64{
			float64(rawQ1%64) / 64 * p / 4,
			float64(rawQ2%64) / 64 * p / 4,
			float64(rawQ3%64) / 64 * p / 4,
		}
		cfg := Config{P: p, Q: PerMode{FT: qs[0], FS: qs[1], NF: qs[2]}}
		if cfg.Validate() != nil {
			return true // skip invalid draws
		}
		for _, m := range task.Modes() {
			if math.Abs(cfg.Alpha(m)*p+cfg.Delta(m)-p) > 1e-9 {
				return false
			}
			lin, exact := cfg.Supply(m), supply.Slot{P: cfg.P, Q: cfg.UsableQ(m)}
			for tt := 0.0; tt <= 3*p; tt += p / 16 {
				if lin.Value(tt) > exact.Value(tt)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFeasiblePeriodIsConfigForable(t *testing.T) {
	// FeasiblePeriod(p) ⟺ ConfigFor(p) succeeds.
	pr := paperProblem()
	f := func(raw uint16) bool {
		p := 0.1 + float64(raw%2048)/512
		ok, err := pr.FeasiblePeriod(p)
		if err != nil {
			return false
		}
		_, cfgErr := pr.ConfigFor(p)
		return ok == (cfgErr == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRMNeverBeatsEDFOnLHS(t *testing.T) {
	// The EDF lhs dominates the RM lhs at every period — the Figure 4
	// ordering, as a quick property.
	edf := paperProblem()
	rm := paperProblem()
	rm.Alg = analysis.RM
	f := func(raw uint16) bool {
		p := 0.1 + float64(raw%2048)/512
		le, err1 := edf.LHS(p)
		lr, err2 := rm.LHS(p)
		return err1 == nil && err2 == nil && le >= lr-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
