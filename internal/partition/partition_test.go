package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/task"
	"repro/internal/workload"
)

func TestHeuristicStrings(t *testing.T) {
	for h, want := range map[Heuristic]string{FirstFit: "first-fit", BestFit: "best-fit", WorstFit: "worst-fit", NextFit: "next-fit"} {
		if got := h.String(); got != want {
			t.Errorf("Heuristic(%d).String() = %q, want %q", int(h), got, want)
		}
	}
	if got := Heuristic(9).String(); got != "Heuristic(9)" {
		t.Errorf("unknown heuristic renders as %q", got)
	}
}

func TestAssignPaperSet(t *testing.T) {
	// The paper's 13 tasks must be placeable by every heuristic under
	// both algorithms, and the result must be a valid partition.
	src := task.PaperTaskSet()
	for _, h := range []Heuristic{FirstFit, BestFit, WorstFit, NextFit} {
		for _, alg := range []analysis.Alg{analysis.RM, analysis.EDF} {
			for _, dec := range []bool{false, true} {
				got, err := Assign(src, Options{Heuristic: h, Decreasing: dec, Alg: alg})
				if err != nil {
					t.Errorf("%v/%v/dec=%v: %v", h, alg, dec, err)
					continue
				}
				assertValidPartition(t, src, got)
			}
		}
	}
}

func assertValidPartition(t *testing.T, src, got task.Set) {
	t.Helper()
	if len(got) != len(src) {
		t.Fatalf("partition changed the task count: %d vs %d", len(got), len(src))
	}
	for i := range src {
		if got[i].Name != src[i].Name || got[i].Mode != src[i].Mode ||
			got[i].C != src[i].C || got[i].T != src[i].T {
			t.Fatalf("partition altered task %d beyond the channel", i)
		}
		if ch := got[i].Channel; ch < 0 || ch >= got[i].Mode.Channels() {
			t.Fatalf("task %s assigned to invalid channel %d", got[i].Name, ch)
		}
	}
	// Every channel individually schedulable on a dedicated processor.
	for _, m := range task.Modes() {
		for ch, sub := range got.Channels(m) {
			if len(sub) == 0 {
				continue
			}
			ok, err := analysis.Schedulable(sub, analysis.EDF)
			if err != nil || !ok {
				t.Fatalf("channel %s/%d not EDF schedulable after partitioning", m, ch)
			}
		}
	}
}

func TestWorstFitBalances(t *testing.T) {
	// Four identical NF tasks: worst-fit spreads one per channel,
	// first-fit stacks them while admission allows.
	var src task.Set
	for i := 0; i < 4; i++ {
		src = append(src, task.Task{Name: string(rune('a' + i)), C: 1, T: 10, D: 10, Mode: task.NF})
	}
	wf, err := Assign(src, Options{Heuristic: WorstFit, Alg: analysis.EDF})
	if err != nil {
		t.Fatal(err)
	}
	for ch, sub := range wf.Channels(task.NF) {
		if len(sub) != 1 {
			t.Errorf("worst-fit channel %d has %d tasks, want 1", ch, len(sub))
		}
	}
	ff, err := Assign(src, Options{Heuristic: FirstFit, Alg: analysis.EDF})
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.Channels(task.NF)[0]) != 4 {
		t.Errorf("first-fit should stack all four admissible tasks on channel 0, got %d", len(ff.Channels(task.NF)[0]))
	}
	if MaxChannelUtilization(wf) >= MaxChannelUtilization(ff) {
		t.Error("worst-fit should yield the lower max channel utilisation here")
	}
}

func TestBestFitTightens(t *testing.T) {
	// Seed channel 0 with a heavy task (assigned first), then a light
	// task: best-fit co-locates it with the heavy one, worst-fit avoids it.
	src := task.Set{
		{Name: "heavy", C: 5, T: 10, D: 10, Mode: task.NF},
		{Name: "light", C: 1, T: 10, D: 10, Mode: task.NF},
	}
	bf, err := Assign(src, Options{Heuristic: BestFit, Alg: analysis.EDF})
	if err != nil {
		t.Fatal(err)
	}
	if bf[0].Channel != bf[1].Channel {
		t.Error("best-fit should co-locate the light task with the heavy one")
	}
	wf, err := Assign(src, Options{Heuristic: WorstFit, Alg: analysis.EDF})
	if err != nil {
		t.Fatal(err)
	}
	if wf[0].Channel == wf[1].Channel {
		t.Error("worst-fit should separate the tasks")
	}
}

func TestAssignRejectsOverload(t *testing.T) {
	// Two U=1 FT tasks cannot share the single FT channel.
	src := task.Set{
		{Name: "a", C: 10, T: 10, D: 10, Mode: task.FT},
		{Name: "b", C: 10, T: 10, D: 10, Mode: task.FT},
	}
	_, err := Assign(src, Options{Heuristic: FirstFit, Alg: analysis.EDF})
	if !errors.Is(err, ErrUnplaceable) {
		t.Errorf("want ErrUnplaceable, got %v", err)
	}
	if _, err := AssignOptimal(src, analysis.EDF); !errors.Is(err, ErrUnplaceable) {
		t.Errorf("optimal: want ErrUnplaceable, got %v", err)
	}
}

func TestAssignValidatesAlg(t *testing.T) {
	src := task.Set{{Name: "a", C: 1, T: 10, D: 10, Mode: task.NF}}
	if _, err := Assign(src, Options{Alg: analysis.Alg(9)}); err == nil {
		t.Error("bad algorithm should be rejected")
	}
	if _, err := AssignOptimal(src, analysis.Alg(9)); err == nil {
		t.Error("bad algorithm should be rejected by AssignOptimal")
	}
}

func TestAssignOptimalNeverWorse(t *testing.T) {
	// On random workloads the exhaustive optimum's max channel
	// utilisation is a lower bound for every heuristic that succeeds.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		src, err := workload.Generate(workload.Config{
			N:                8,
			TotalUtilization: 1.2 + rng.Float64(),
			Seed:             int64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := AssignOptimal(src, analysis.EDF)
		if err != nil {
			continue // genuinely unplaceable workload
		}
		optU := MaxChannelUtilization(opt)
		for _, h := range []Heuristic{FirstFit, BestFit, WorstFit, NextFit} {
			got, err := Assign(src, Options{Heuristic: h, Decreasing: true, Alg: analysis.EDF})
			if err != nil {
				continue // heuristic may fail where optimal succeeds
			}
			if u := MaxChannelUtilization(got); u < optU-1e-9 {
				t.Errorf("trial %d: %v beat the exhaustive optimum (%g < %g)", trial, h, u, optU)
			}
		}
	}
}

func TestAssignOptimalBoundsSearch(t *testing.T) {
	var src task.Set
	for i := 0; i < maxOptimalTasksPerMode+1; i++ {
		src = append(src, task.Task{Name: string(rune('a' + i)), C: 0.1, T: 10, D: 10, Mode: task.NF})
	}
	if _, err := AssignOptimal(src, analysis.EDF); err == nil {
		t.Error("oversized mode should be rejected, not enumerated")
	}
}

func TestAssignIgnoresInputChannels(t *testing.T) {
	src := task.Set{{Name: "a", C: 1, T: 10, D: 10, Mode: task.NF, Channel: 3}}
	got, err := Assign(src, Options{Heuristic: FirstFit, Alg: analysis.EDF})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Channel != 0 {
		t.Errorf("first-fit should use channel 0, got %d", got[0].Channel)
	}
	if src[0].Channel != 3 {
		t.Error("Assign must not mutate its input")
	}
}

// TestAssignRejectsUnknownHeuristic checks that a heuristic outside
// the four rules is refused before any placement, for every input
// including the empty set, with an error that names it and does not
// claim a task fits no channel.
func TestAssignRejectsUnknownHeuristic(t *testing.T) {
	sets := []task.Set{nil, {{Name: "a", C: 1, T: 5, Mode: task.NF}}}
	for _, h := range []Heuristic{9, -1} {
		for _, s := range sets {
			_, err := Assign(s, Options{Heuristic: h, Alg: analysis.EDF})
			if err == nil {
				t.Fatalf("heuristic %d on %d tasks: no error", int(h), len(s))
			}
			if errors.Is(err, ErrUnplaceable) {
				t.Errorf("heuristic %d on %d tasks: %v wraps ErrUnplaceable", int(h), len(s), err)
			}
			if want := fmt.Sprintf("unknown heuristic %d", int(h)); !strings.Contains(err.Error(), want) {
				t.Errorf("heuristic %d on %d tasks: %q does not say %q", int(h), len(s), err, want)
			}
		}
	}
}
