package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/task"
)

func paperProblem() Problem {
	return Problem{
		Tasks: task.PaperTaskSet(),
		Alg:   analysis.EDF,
		O:     UniformOverheads(task.PaperOverheadTotal),
	}
}

func TestPerMode(t *testing.T) {
	p := PerMode{FT: 1, FS: 2, NF: 3}
	if p.Of(task.FT) != 1 || p.Of(task.FS) != 2 || p.Of(task.NF) != 3 {
		t.Error("Of mismatch")
	}
	if p.Of(task.Mode(9)) != 0 {
		t.Error("Of on invalid mode should be 0")
	}
	if p.Total() != 6 {
		t.Errorf("Total = %g, want 6", p.Total())
	}
	q := p.With(task.FS, 7)
	if q.FS != 7 || p.FS != 2 {
		t.Error("With must not mutate the receiver")
	}
	if p.With(task.Mode(9), 7) != p {
		t.Error("With on invalid mode should be a no-op")
	}
}

func TestUniformOverheads(t *testing.T) {
	o := UniformOverheads(0.05)
	if math.Abs(o.Total()-0.05) > 1e-15 {
		t.Errorf("Total = %g, want 0.05", o.Total())
	}
	if o.FT != o.FS || o.FS != o.NF {
		t.Error("uniform overheads must be equal")
	}
}

func TestConfigAccessors(t *testing.T) {
	cfg := Config{
		P: 4,
		Q: PerMode{FT: 1.0, FS: 1.5, NF: 1.0},
		O: PerMode{FT: 0.1, FS: 0.1, NF: 0.1},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if got := cfg.UsableQ(task.FS); math.Abs(got-1.4) > 1e-12 {
		t.Errorf("UsableQ(FS) = %g, want 1.4", got)
	}
	if got := cfg.Alpha(task.FT); math.Abs(got-0.9/4) > 1e-12 {
		t.Errorf("Alpha(FT) = %g", got)
	}
	if got := cfg.Delta(task.FT); math.Abs(got-(4-0.9)) > 1e-12 {
		t.Errorf("Delta(FT) = %g", got)
	}
	if got := cfg.Slack(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Slack = %g, want 0.5", got)
	}
	// Slots packed FT, FS, NF from time zero (Figure 2).
	if cfg.SlotStart(task.FT) != 0 || cfg.SlotStart(task.FS) != 1.0 || cfg.SlotStart(task.NF) != 2.5 {
		t.Error("SlotStart mismatch")
	}
	sp := cfg.Supply(task.NF)
	if math.Abs(sp.Alpha-0.9/4) > 1e-12 || math.Abs(sp.Delta-3.1) > 1e-12 {
		t.Errorf("Supply(NF) = %+v", sp)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []Config{
		{P: 0},
		{P: -1},
		{P: 4, Q: PerMode{FT: 1}, O: PerMode{FT: -0.1}},
		{P: 4, Q: PerMode{FT: 0.05}, O: PerMode{FT: 0.1}},
		{P: 2, Q: PerMode{FT: 1, FS: 1, NF: 1}},
		// NaN fails no ordered comparison, so each check must be written
		// to fail on it.
		{P: math.NaN()},
		{P: math.Inf(1)},
		{P: 2, Q: PerMode{FT: math.NaN()}},
		{P: 2, Q: PerMode{NF: math.Inf(1)}},
		{P: 2, Q: PerMode{FS: 1}, O: PerMode{FS: math.NaN()}},
		{P: 2.9, Q: PerMode{FT: math.NaN(), FS: 0.9, NF: 0.9}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
}

func TestProblemValidate(t *testing.T) {
	if err := paperProblem().Validate(); err != nil {
		t.Errorf("paper problem invalid: %v", err)
	}
	if err := (Problem{}).Validate(); err == nil {
		t.Error("empty problem should be invalid")
	}
	bad := paperProblem()
	bad.O.FS = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative overhead should be invalid")
	}
}

func TestMinQuantaPaperValues(t *testing.T) {
	// Table 2(b): at P = 2.966 with EDF the minimum usable quanta are
	// Q̃_FT = 0.820, Q̃_FS = 1.281, Q̃_NF = 0.815 (3-decimal rounding).
	pr := paperProblem()
	q, err := pr.MinQuanta(2.966)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 5e-4 // paper rounds to 3 decimals
	if math.Abs(q.FT-0.820) > tol {
		t.Errorf("Q̃_FT = %.4f, want 0.820", q.FT)
	}
	if math.Abs(q.FS-1.281) > tol {
		t.Errorf("Q̃_FS = %.4f, want 1.281", q.FS)
	}
	if math.Abs(q.NF-0.815) > tol {
		t.Errorf("Q̃_NF = %.4f, want 0.815", q.NF)
	}
	// And the configuration exactly fills the period: slack ≈ 0 at the
	// boundary period.
	lhs, err := pr.LHS(2.966)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lhs-0.05) > 1e-3 {
		t.Errorf("LHS(2.966) = %.4f, want ≈ O_tot = 0.05", lhs)
	}
}

func TestMinQuantaTable2c(t *testing.T) {
	// Table 2(c): at P = 0.855 the quanta are 0.230 / 0.252 / 0.220 and
	// the slack is 0.103.
	pr := paperProblem()
	q, err := pr.MinQuanta(0.855)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 5e-4
	if math.Abs(q.FT-0.230) > tol || math.Abs(q.FS-0.252) > tol || math.Abs(q.NF-0.220) > tol {
		t.Errorf("quanta = %.4f/%.4f/%.4f, want 0.230/0.252/0.220", q.FT, q.FS, q.NF)
	}
	lhs, err := pr.LHS(0.855)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((lhs-0.05)-0.103) > 1e-3 {
		t.Errorf("slack at P=0.855 = %.4f, want 0.103", lhs-0.05)
	}
}

func TestFeasiblePeriodAndConfigFor(t *testing.T) {
	pr := paperProblem()
	ok, err := pr.FeasiblePeriod(2.9)
	if err != nil || !ok {
		t.Errorf("P=2.9 should be feasible (%v, %v)", ok, err)
	}
	ok, err = pr.FeasiblePeriod(3.4)
	if err != nil || ok {
		t.Errorf("P=3.4 should be infeasible with O_tot=0.05 (%v, %v)", ok, err)
	}
	cfg, err := pr.ConfigFor(2.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("ConfigFor produced invalid config: %v", err)
	}
	if cfg.Slack() < 0 {
		t.Errorf("negative slack %g", cfg.Slack())
	}
	if _, err := pr.ConfigFor(3.4); err == nil {
		t.Error("ConfigFor at infeasible period should error")
	}
}

func TestVerifyAcceptsSolvedConfigs(t *testing.T) {
	// Cross-validation: configurations built from minQ inversion must
	// pass the direct Theorem 1/2 check, for both algorithms and many
	// periods.
	for _, alg := range []analysis.Alg{analysis.RM, analysis.EDF} {
		pr := paperProblem()
		pr.Alg = alg
		for p := 0.3; p <= 2.3; p += 0.1 {
			ok, err := pr.FeasiblePeriod(p)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			cfg, err := pr.ConfigFor(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := pr.Verify(cfg); err != nil {
				t.Errorf("%s P=%.2f: solved config fails verification: %v", alg, p, err)
			}
		}
	}
}

func TestVerifyRejectsStarvedMode(t *testing.T) {
	pr := paperProblem()
	cfg, err := pr.ConfigFor(2.0)
	if err != nil {
		t.Fatal(err)
	}
	// Steal most of the FT quantum: verification must fail.
	cfg.Q = cfg.Q.With(task.FT, cfg.O.FT+0.01)
	if err := pr.Verify(cfg); err == nil {
		t.Error("starved FT mode should fail verification")
	}
	// Remove the quantum entirely: a different failure path (no bandwidth).
	cfg.Q = cfg.Q.With(task.FT, cfg.O.FT)
	if err := pr.Verify(cfg); err == nil {
		t.Error("zero-bandwidth FT mode should fail verification")
	}
}

func TestVerifyRejectsInvalidConfig(t *testing.T) {
	pr := paperProblem()
	if err := pr.Verify(Config{P: -1}); err == nil {
		t.Error("invalid config must fail verification")
	}
}

func TestRequiredUtilizations(t *testing.T) {
	u := paperProblem().RequiredUtilizations()
	const tol = 5e-4
	if math.Abs(u.FT-0.267) > tol || math.Abs(u.FS-0.267) > tol || math.Abs(u.NF-0.250) > tol {
		t.Errorf("required utilisations %.3f/%.3f/%.3f, want 0.267/0.267/0.250", u.FT, u.FS, u.NF)
	}
}

func TestAllocatedUtilizationsNeverBelowRequired(t *testing.T) {
	// Any feasible configuration must allocate at least the required
	// bandwidth in every mode (the paper's necessary condition).
	pr := paperProblem()
	req := pr.RequiredUtilizations()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		p := 0.3 + rng.Float64()*2.6
		ok, err := pr.FeasiblePeriod(p)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		cfg, err := pr.ConfigFor(p)
		if err != nil {
			t.Fatal(err)
		}
		alloc := AllocatedUtilizations(cfg)
		for _, m := range task.Modes() {
			if alloc.Of(m) < req.Of(m)-1e-9 {
				t.Errorf("P=%.3f mode %s: allocated %.4f below required %.4f", p, m, alloc.Of(m), req.Of(m))
			}
		}
	}
}

// TestSlotFitTolBoundary pins the shared slot-fit tolerance: a
// configuration whose slots overrun the period by less than SlotFitTol
// is structurally valid (boundary configurations produced by inverting
// the theorems land here), while an overrun beyond it is rejected. The
// same constant gates ConfigFor and the online admission controller, so
// design-time and run-time acceptance can never disagree at the
// boundary (see internal/online's regression test for the run-time
// side).
func TestSlotFitTolBoundary(t *testing.T) {
	base := Config{P: 2, Q: PerMode{FT: 1, FS: 0.6, NF: 0.4}}
	if err := base.Validate(); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
	within := base
	within.Q.NF += 0.5 * SlotFitTol
	if within.Q.Total() <= within.P {
		t.Fatal("test construction: overrun did not materialise")
	}
	if err := within.Validate(); err != nil {
		t.Errorf("overrun below SlotFitTol rejected: %v", err)
	}
	beyond := base
	beyond.Q.NF += 10 * SlotFitTol
	if err := beyond.Validate(); err == nil {
		t.Error("overrun beyond SlotFitTol accepted")
	}
}
