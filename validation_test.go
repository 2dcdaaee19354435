package repro

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/online"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/supply"
	"repro/internal/task"
)

// TestNonFiniteTaskParametersRejected checks that a task whose C, T or
// D is NaN or infinite is refused by every entry point that takes
// tasks: Set.Validate, sim.New, partition.Assign under RM and EDF, and
// online.Manager.Admit. Each refusal must be the validation error, and
// a finite control task must pass all of them.
func TestNonFiniteTaskParametersRejected(t *testing.T) {
	pr := PaperProblem(EDF)
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Design(pr, MaxFlexibility)
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name  string
		check func(task.Task) error
	}{
		{"Set.Validate", func(tk task.Task) error { return task.Set{tk.Normalized()}.Validate() }},
		{"sim.New", func(tk task.Task) error {
			_, err := sim.New(sol.Config, task.Set{tk.Normalized()}, analysis.EDF)
			return err
		}},
		{"partition.Assign/RM", func(tk task.Task) error {
			_, err := partition.Assign(task.Set{tk}, partition.Options{Heuristic: partition.WorstFit, Alg: analysis.RM})
			return err
		}},
		{"partition.Assign/EDF", func(tk task.Task) error {
			_, err := partition.Assign(task.Set{tk}, partition.Options{Heuristic: partition.FirstFit, Alg: analysis.EDF})
			return err
		}},
		{"online.Manager.Admit", func(tk task.Task) error {
			m, err := online.NewManagerFromCompiled(cp, sol.Config)
			if err != nil {
				t.Fatal(err)
			}
			return m.Admit(tk)
		}},
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []task.Task{
		{Name: "x", C: nan, T: 50},
		{Name: "x", C: 1, T: nan},
		{Name: "x", C: 1, T: inf},
		{Name: "x", C: inf, T: 50},
		{Name: "x", C: math.Inf(-1), T: 50},
		{Name: "x", C: 1, T: 50, D: nan},
		{Name: "x", C: 1, T: nan, D: 50},
		{Name: "x", C: 1, T: inf, D: 50},
	}
	control := task.Task{Name: "x", C: 0.01, T: 50, Mode: task.NF}
	for _, e := range entries {
		if err := e.check(control); err != nil {
			t.Errorf("%s refuses the finite control task %+v: %v", e.name, control, err)
		}
		for _, tk := range bad {
			tk.Mode = task.NF
			err := e.check(tk)
			switch {
			case err == nil:
				t.Errorf("%s accepts C = %g, T = %g, D = %g", e.name, tk.C, tk.T, tk.D)
			case errors.Is(err, partition.ErrUnplaceable) || !strings.Contains(err.Error(), "positive and finite"):
				t.Errorf("%s refuses C = %g, T = %g, D = %g with %q, not as invalid", e.name, tk.C, tk.T, tk.D, err)
			}
		}
	}
}

// TestNonFinitePeriodsRejected checks that every entry point taking a
// period refuses one that is not positive and finite (NaN, ±Inf, 0 and
// −1) as an invalid period, not as an infeasible one or with a NaN
// result, and accepts the paper's design period. A search's PMax of 0
// means "derive from the task set", so the searches are not given 0.
func TestNonFinitePeriodsRejected(t *testing.T) {
	pr := PaperProblem(EDF)
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ft := pr.Tasks.Channels(task.FT)[0]
	search := func(p float64) ExploreOptions { return ExploreOptions{PMax: p, Samples: 64} }
	entries := []struct {
		name   string
		search bool
		check  func(p float64) error
	}{
		{"Explore", true, func(p float64) error { _, err := Explore(pr, search(p)); return err }},
		{"ExploreParallel", true, func(p float64) error { _, err := ExploreParallel(pr, search(p), 2); return err }},
		{"MaxFeasiblePeriod", true, func(p float64) error { _, err := MaxFeasiblePeriod(pr, search(p)); return err }},
		{"MaxAdmissibleOverhead", true, func(p float64) error { _, _, err := MaxAdmissibleOverhead(pr, search(p)); return err }},
		{"CriticalScaling", false, func(p float64) error { _, err := CriticalScaling(pr, p); return err }},
		{"SolveLayout", false, func(p float64) error { _, err := SolveLayout(pr, p, SubSlotCounts{FT: 1, FS: 1, NF: 1}); return err }},
		{"analysis.MinQ", false, func(p float64) error { _, err := analysis.MinQ(ft, analysis.EDF, p); return err }},
		{"Problem.ConfigFor", false, func(p float64) error { _, err := pr.ConfigFor(p); return err }},
		{"CompiledProblem.ConfigFor", false, func(p float64) error { _, err := cp.ConfigFor(p); return err }},
		{"layout.Build", false, func(p float64) error {
			_, err := layout.Build(p, layout.Counts{}, core.PerMode{FT: 0.1, FS: 0.1, NF: 0.1}, pr.O)
			return err
		}},
		{"supply.MinQExact", false, func(p float64) error { _, _, err := supply.MinQExact(ft, analysis.EDF, p); return err }},
	}
	// A check runs on its own goroutine, so that one which never
	// returns (a bisection towards an infinite bound) fails the test
	// instead of hanging it.
	call := func(name string, check func(float64) error, p float64) error {
		done := make(chan error, 1)
		go func() { done <- check(p) }()
		select {
		case err := <-done:
			return err
		case <-time.After(20 * time.Second):
			t.Fatalf("%s does not return at P = %g", name, p)
			return nil
		}
	}
	for _, e := range entries {
		if err := call(e.name, e.check, 2.966); err != nil {
			t.Errorf("%s refuses P = 2.966: %v", e.name, err)
		}
		for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
			if p == 0 && e.search {
				continue
			}
			switch err := call(e.name, e.check, p); {
			case err == nil:
				t.Errorf("%s accepts P = %g", e.name, p)
			case !strings.Contains(err.Error(), "must be positive and finite"):
				t.Errorf("%s refuses P = %g with %q, not as an invalid period", e.name, p, err)
			}
		}
	}
}

// TestNonFiniteSuppliesRejected checks that a supply with a NaN or
// infinite parameter is refused as invalid rather than read as feasible
// or infeasible: an (α, Δ) pair by FeasibleEDF and FeasibleFP, a slot
// by Slot.Validate and a pattern by NewPattern. The first row of each
// kind is a finite control that must pass.
func TestNonFiniteSuppliesRejected(t *testing.T) {
	ft := PaperProblem(EDF).Tasks.Channels(task.FT)[0]
	nan, inf := math.NaN(), math.Inf(1)
	type entry struct {
		name  string
		valid bool
		check func() error
	}
	var entries []entry
	for i, sp := range []analysis.Supply{{Alpha: 1}, {Alpha: nan}, {Alpha: 0.5, Delta: nan}, {Alpha: 0.5, Delta: inf}} {
		entries = append(entries,
			entry{fmt.Sprintf("FeasibleEDF(α=%g, Δ=%g)", sp.Alpha, sp.Delta), i == 0,
				func() error { _, err := analysis.FeasibleEDF(ft, sp); return err }},
			entry{fmt.Sprintf("FeasibleFP(α=%g, Δ=%g)", sp.Alpha, sp.Delta), i == 0,
				func() error { _, err := analysis.FeasibleFP(ft, analysis.RM, sp); return err }})
	}
	for i, s := range []supply.Slot{{P: 2, Q: 0.5}, {P: nan, Q: 0.5}, {P: 2, Q: nan}, {P: inf, Q: 1}} {
		entries = append(entries, entry{fmt.Sprintf("Slot{P: %g, Q: %g}.Validate", s.P, s.Q), i == 0, s.Validate})
	}
	for i, pat := range []supply.Pattern{
		{P: 2, Intervals: []supply.Interval{{Start: 0, End: 1}}},
		{P: nan, Intervals: []supply.Interval{{Start: 0, End: 1}}},
		{P: inf, Intervals: []supply.Interval{{Start: 0, End: 1}}},
		{P: 2, Intervals: []supply.Interval{{Start: nan, End: 1}}},
		{P: 2, Intervals: []supply.Interval{{Start: 0, End: nan}}},
	} {
		entries = append(entries, entry{fmt.Sprintf("NewPattern(%g, %v)", pat.P, pat.Intervals), i == 0,
			func() error { _, err := supply.NewPattern(pat.P, pat.Intervals); return err }})
	}
	for _, e := range entries {
		switch err := e.check(); {
		case e.valid && err != nil:
			t.Errorf("%s refuses a finite supply: %v", e.name, err)
		case !e.valid && err == nil:
			t.Errorf("%s accepts a non-finite supply", e.name)
		}
	}
}
