package faults

import (
	"testing"

	"repro/internal/timeu"
)

func TestFaultValidate(t *testing.T) {
	good := Fault{At: 10, Core: 3, Duration: 5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid fault rejected: %v", err)
	}
	if good.End() != 15 {
		t.Errorf("End = %d, want 15", good.End())
	}
	bad := []Fault{
		{At: -1, Core: 0, Duration: 1},
		{At: 0, Core: -1, Duration: 1},
		{At: 0, Core: 4, Duration: 1},
		{At: 0, Core: 0, Duration: 0},
		{At: 0, Core: 0, Duration: -2},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("fault %d should be invalid: %+v", i, f)
		}
	}
}

func TestValidateSingleFault(t *testing.T) {
	ok := []Fault{
		{At: 0, Core: 0, Duration: 5},
		{At: 10, Core: 1, Duration: 5},
	}
	if err := ValidateSingleFault(ok, 0); err != nil {
		t.Errorf("disjoint schedule rejected: %v", err)
	}
	if err := ValidateSingleFault(ok, 6); err == nil {
		t.Error("recovery gap of 6 should reject a 5-tick separation")
	}
	overlap := []Fault{
		{At: 0, Core: 0, Duration: 5},
		{At: 3, Core: 1, Duration: 5},
	}
	if err := ValidateSingleFault(overlap, 0); err == nil {
		t.Error("overlapping faults violate the single-fault assumption")
	}
	unsorted := []Fault{
		{At: 10, Core: 0, Duration: 1},
		{At: 0, Core: 1, Duration: 1},
	}
	if err := ValidateSingleFault(unsorted, 0); err == nil {
		t.Error("unsorted schedule should be rejected")
	}
	if err := ValidateSingleFault(nil, 0); err != nil {
		t.Error("empty schedule is trivially fine")
	}
}

func TestScriptSchedule(t *testing.T) {
	s := Script{
		{At: 50, Core: 1, Duration: 5},
		{At: 10, Core: 0, Duration: 5},
		{At: 200, Core: 2, Duration: 5},
	}
	got, err := s.Schedule(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("schedule has %d faults, want 2 (horizon clips the third)", len(got))
	}
	if got[0].At != 10 || got[1].At != 50 {
		t.Error("schedule must be sorted by strike time")
	}
	overlapping := Script{
		{At: 10, Core: 0, Duration: 10},
		{At: 15, Core: 1, Duration: 10},
	}
	if _, err := overlapping.Schedule(100); err == nil {
		t.Error("overlapping script should be rejected")
	}
}

func TestPoissonSchedule(t *testing.T) {
	p := Poisson{Rate: 0.01, Duration: timeu.FromUnits(0.5), Seed: 1}
	horizon := timeu.FromUnits(10_000)
	got, err := p.Schedule(horizon)
	if err != nil {
		t.Fatal(err)
	}
	// Expected ≈ rate × horizon = 100 faults; allow wide slack.
	if len(got) < 50 || len(got) > 200 {
		t.Errorf("Poisson produced %d faults, expected ≈100", len(got))
	}
	if err := ValidateSingleFault(got, 0); err != nil {
		t.Errorf("Poisson schedule violates single-fault assumption: %v", err)
	}
	for _, f := range got {
		if f.At >= horizon {
			t.Errorf("fault at %s beyond horizon", f.At)
		}
		if f.Core < 0 || f.Core >= NumCores {
			t.Errorf("core %d out of range", f.Core)
		}
	}
	// Determinism.
	again, err := p.Schedule(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(got) {
		t.Error("same seed must reproduce the same schedule")
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("same seed must reproduce the same schedule exactly")
		}
	}
	// A different seed should (overwhelmingly) differ.
	other, err := Poisson{Rate: 0.01, Duration: timeu.FromUnits(0.5), Seed: 2}.Schedule(horizon)
	if err != nil {
		t.Fatal(err)
	}
	same := len(other) == len(got)
	if same {
		for i := range got {
			if got[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	if fs, err := (Poisson{Rate: 0}).Schedule(1000); err != nil || fs != nil {
		t.Error("zero rate means no faults")
	}
	if _, err := (Poisson{Rate: -1, Duration: 1}).Schedule(1000); err == nil {
		t.Error("negative rate should be rejected")
	}
	if _, err := (Poisson{Rate: 1, Duration: 0}).Schedule(1000); err == nil {
		t.Error("zero duration should be rejected")
	}
}

func TestValidateOnExplicitWidth(t *testing.T) {
	f := Fault{At: 0, Core: 6, Duration: 1}
	if err := f.Validate(); err == nil {
		t.Error("core 6 is off the default 4-core platform")
	}
	if err := f.ValidateOn(8); err != nil {
		t.Errorf("core 6 fits an 8-core platform: %v", err)
	}
	if err := f.ValidateOn(0); err == nil {
		t.Error("zero-core platform should be rejected")
	}
	if err := f.ValidateOn(-2); err == nil {
		t.Error("negative platform width should be rejected")
	}
	sched := []Fault{
		{At: 0, Core: 5, Duration: 2},
		{At: 10, Core: 7, Duration: 2},
	}
	if err := ValidateSingleFault(sched, 0); err == nil {
		t.Error("8-core schedule should fail default-width validation")
	}
	if err := ValidateSingleFaultOn(sched, 0, 8); err != nil {
		t.Errorf("8-core schedule valid on 8 cores: %v", err)
	}
}

func TestPoissonExplicitCores(t *testing.T) {
	p := Poisson{Rate: 0.05, Duration: timeu.FromUnits(0.5), Seed: 3, Cores: 2}
	got, err := p.Schedule(timeu.FromUnits(2000))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("expected some faults")
	}
	for _, f := range got {
		if f.Core < 0 || f.Core >= 2 {
			t.Errorf("core %d drawn outside the 2-core platform", f.Core)
		}
	}
	if _, err := (Poisson{Rate: 1, Duration: 1, Cores: -1}).Schedule(1000); err == nil {
		t.Error("negative platform width should be rejected")
	}
}

func TestCapacitySteps(t *testing.T) {
	fs := []Fault{
		{At: timeu.FromUnits(10), Core: 2, Duration: timeu.FromUnits(2)},
		{At: timeu.FromUnits(20), Core: 0, Duration: timeu.FromUnits(1)},
	}
	const period = 2.0
	steps, err := CapacitySteps(fs, period, 0) // default width
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 4 {
		t.Fatalf("got %d steps, want a revoke+restore pair per fault", len(steps))
	}
	share := period / NumCores
	for i, s := range steps {
		if s.Capacity != share {
			t.Errorf("step %d revokes %g, want the struck core's share %g", i, s.Capacity, share)
		}
		if i > 0 && s.At < steps[i-1].At {
			t.Error("steps must be sorted by time")
		}
	}
	// Each fault: revoke at the strike, restore at the clear, same core.
	if steps[0].Restore || steps[0].Core != 2 || steps[0].At != fs[0].At {
		t.Errorf("first step %+v, want revoke of core 2 at the strike", steps[0])
	}
	if !steps[1].Restore || steps[1].At != fs[0].End() {
		t.Errorf("second step %+v, want restore at the clear", steps[1])
	}

	// Explicit width changes the share.
	steps, err = CapacitySteps(fs[:1], period, 8)
	if err != nil {
		t.Fatal(err)
	}
	if steps[0].Capacity != period/8 {
		t.Errorf("8-core share %g, want %g", steps[0].Capacity, period/8)
	}

	// Guards: bad period, single-fault violation.
	if _, err := CapacitySteps(fs, 0, 0); err == nil {
		t.Error("zero period should be rejected")
	}
	overlap := []Fault{
		{At: 0, Core: 0, Duration: 10},
		{At: 5, Core: 1, Duration: 10},
	}
	if _, err := CapacitySteps(overlap, period, 0); err == nil {
		t.Error("overlapping faults should be rejected")
	}
}
