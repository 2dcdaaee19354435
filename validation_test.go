package repro

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/online"
	"repro/internal/partition"
	"repro/internal/sim"
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
