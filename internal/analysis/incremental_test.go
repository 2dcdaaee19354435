package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/task"
)

// assertProfileIdentical checks the full exactness guarantee of the
// incremental layer: not just the pruned envelopes (Profile.Equal) but
// the retained streams and the demand row too, compared exactly, so
// that a patched profile keeps answering future WithTasks/WithoutTasks
// calls exactly like a fresh Compile would.
func assertProfileIdentical(t *testing.T, stage string, got, want *Profile) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: pruned pairs differ from fresh Compile (got %d, want %d pairs)",
			stage, got.Pairs(), want.Pairs())
	}
	if len(got.tasks) != len(want.tasks) {
		t.Fatalf("%s: %d tasks retained, want %d", stage, len(got.tasks), len(want.tasks))
	}
	for i := range got.tasks {
		if got.tasks[i] != want.tasks[i] {
			t.Fatalf("%s: task %d is %+v, want %+v", stage, i, got.tasks[i], want.tasks[i])
		}
	}
	if got.horizon != want.horizon {
		t.Fatalf("%s: horizon %g, want %g", stage, got.horizon, want.horizon)
	}
	if got.horizonInt != want.horizonInt {
		t.Fatalf("%s: horizonInt %d, want %d", stage, got.horizonInt, want.horizonInt)
	}
	gotTs, wantTs := got.ts, want.ts
	gotOwn, wantOwn := got.owners, want.owners
	if len(gotTs) != len(wantTs) || len(gotOwn) != len(wantOwn) {
		t.Fatalf("%s: %d stream points and %d owner counts, want %d and %d", stage, len(gotTs), len(gotOwn), len(wantTs), len(wantOwn))
	}
	for k := range gotTs {
		if gotTs[k] != wantTs[k] {
			t.Fatalf("%s: stream point %d is %x, want %x", stage, k, gotTs[k], wantTs[k])
		}
		if gotOwn[k] != wantOwn[k] {
			t.Fatalf("%s: owner count at point %d is %d, want %d",
				stage, k, gotOwn[k], wantOwn[k])
		}
	}
	if len(got.w) != len(want.w) {
		t.Fatalf("%s: demand row has %d points, want %d", stage, len(got.w), len(want.w))
	}
	for k := range got.w {
		if got.w[k] != want.w[k] {
			t.Fatalf("%s: demand at point %d is %d ticks, want %d", stage, k, got.w[k], want.w[k])
		}
	}
}

// churnPool returns candidate tasks exercising every incremental path:
// periods already on the base set's grid (pure merges), shared (T, D)
// pairs (no points added or dropped), constrained deadlines (solely
// owned points that must drop on removal), and off-grid periods that
// stretch the hyperperiod (full-compile fallback both ways).
func churnPool() task.Set {
	return task.Set{
		{Name: "a", C: 0.30, T: 10, D: 10},
		{Name: "b", C: 0.20, T: 10, D: 10},  // exact (T, D) twin of a
		{Name: "c", C: 0.15, T: 5, D: 4},    // constrained: owns its points
		{Name: "d", C: 0.10, T: 20, D: 20},  // deadlines subset of T=10 tasks
		{Name: "e", C: 0.25, T: 8, D: 6.5},  // constrained, off the others' grid
		{Name: "f", C: 0.05, T: 7, D: 7},    // stretches hyperperiod: fallback
		{Name: "g", C: 0.40, T: 4, D: 3},    // dense stream, high priority
		{Name: "h", C: 0.10, T: 40, D: 40},  // sparse stream
		{Name: "i", C: 0.02, T: 10, D: 2.5}, // shortest deadline: top DM priority
	}
}

// TestIncrementalChurnBitIdentical drives randomized one-task
// WithTasks/WithoutTasks sequences — including remove-then-readmit
// round trips — and asserts after every step that the incremental
// profile is bit-identical to a fresh Compile of the surviving set,
// retained streams included.
func TestIncrementalChurnBitIdentical(t *testing.T) {
	pool := churnPool()
	for _, alg := range []Alg{EDF, RM, DM} {
		t.Run(alg.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(alg) + 11))
			pf, err := Compile(nil, alg)
			if err != nil {
				t.Fatal(err)
			}
			var live task.Set
			for step := 0; step < 250; step++ {
				tk := pool[rng.Intn(len(pool))]
				idx := -1
				for i := range live {
					if live[i].Name == tk.Name {
						idx = i
						break
					}
				}
				var stage string
				if idx < 0 {
					stage = "admit " + tk.Name
					pf, err = pf.WithTasks([]task.Task{tk})
					if err != nil {
						t.Fatalf("step %d (%s): %v", step, stage, err)
					}
					live = append(live, tk)
				} else {
					stage = "remove " + tk.Name
					pf, err = pf.WithoutTasks([]task.Task{tk})
					if err != nil {
						t.Fatalf("step %d (%s): %v", step, stage, err)
					}
					live = append(append(task.Set(nil), live[:idx]...), live[idx+1:]...)
				}
				fresh, err := Compile(live, alg)
				if err != nil {
					t.Fatalf("step %d (%s): oracle Compile: %v", step, stage, err)
				}
				assertProfileIdentical(t, stage, pf, fresh)
				p := 0.5 + rng.Float64()*5
				if got, want := pf.MinQ(p), fresh.MinQ(p); got != want {
					t.Fatalf("step %d (%s): MinQ(%g) = %x, fresh = %x", step, stage, p, got, want)
				}
			}
		})
	}
}

// TestWithTaskMatchesCompile grows the paper's channels one task at a
// time and checks each intermediate profile against a fresh Compile.
func TestWithTaskMatchesCompile(t *testing.T) {
	s := task.PaperTaskSet()
	for _, alg := range []Alg{EDF, RM, DM} {
		for _, m := range task.Modes() {
			for _, ch := range s.Channels(m) {
				pf, err := Compile(nil, alg)
				if err != nil {
					t.Fatal(err)
				}
				for i, tk := range ch {
					if pf, err = pf.WithTasks([]task.Task{tk}); err != nil {
						t.Fatalf("%s: WithTasks(%s): %v", alg, tk.Name, err)
					}
					fresh, err := Compile(ch[:i+1], alg)
					if err != nil {
						t.Fatal(err)
					}
					assertProfileIdentical(t, alg.String()+" grow "+tk.Name, pf, fresh)
				}
			}
		}
	}
}

// TestWithoutTaskMatchesCompile removes each task (first, middle, last
// positions included) from each paper channel and compares to a fresh
// Compile of the survivors.
func TestWithoutTaskMatchesCompile(t *testing.T) {
	s := task.PaperTaskSet()
	for _, alg := range []Alg{EDF, RM, DM} {
		for _, m := range task.Modes() {
			for _, ch := range s.Channels(m) {
				pf, err := Compile(ch, alg)
				if err != nil {
					t.Fatal(err)
				}
				for i, tk := range ch {
					got, err := pf.WithoutTasks([]task.Task{tk})
					if err != nil {
						t.Fatalf("%s: WithoutTasks(%s): %v", alg, tk.Name, err)
					}
					surv := append(append(task.Set(nil), ch[:i]...), ch[i+1:]...)
					fresh, err := Compile(surv, alg)
					if err != nil {
						t.Fatal(err)
					}
					assertProfileIdentical(t, alg.String()+" drop "+tk.Name, got, fresh)
				}
			}
		}
	}
}

// TestIncrementalHyperperiodFallback admits a task whose period extends
// the hyperperiod: the incremental path must fall back to a full compile
// and still match the oracle, both on the way in and back out.
func TestIncrementalHyperperiodFallback(t *testing.T) {
	base := task.Set{
		{Name: "x", C: 0.5, T: 4, D: 4},
		{Name: "y", C: 0.5, T: 6, D: 6},
	}
	stretch := task.Task{Name: "z", C: 0.1, T: 7, D: 7} // lcm 12 → 84
	pf, err := Compile(base, EDF)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := pf.WithTasks([]task.Task{stretch})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Compile(append(append(task.Set(nil), base...), stretch), EDF)
	if err != nil {
		t.Fatal(err)
	}
	assertProfileIdentical(t, "stretch admit", grown, fresh)
	back, err := grown.WithoutTasks([]task.Task{stretch})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Compile(base, EDF)
	if err != nil {
		t.Fatal(err)
	}
	assertProfileIdentical(t, "stretch remove", back, orig)
}

// TestIncrementalErrors covers the failure modes: invalid tasks are
// rejected by WithTasks, absent tasks by WithoutTasks, and neither touches
// the receiver.
func TestIncrementalErrors(t *testing.T) {
	s := task.PaperTaskSet().ByMode(task.FT)
	for _, alg := range []Alg{EDF, RM} {
		pf, err := Compile(s, alg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pf.WithTasks([]task.Task{{Name: "bad", C: -1, T: 5, D: 5}}); err == nil {
			t.Errorf("%s: WithTasks with invalid task: want error", alg)
		}
		if _, err := pf.WithoutTasks([]task.Task{{Name: "ghost", C: 1, T: 5, D: 5}}); err == nil {
			t.Errorf("%s: WithoutTasks with absent task: want error", alg)
		}
		fresh, err := Compile(s, alg)
		if err != nil {
			t.Fatal(err)
		}
		assertProfileIdentical(t, alg.String()+" after failed ops", pf, fresh)
	}
}

// TestProfileTasksOrder documents the Tasks accessor's order contract:
// declaration order for EDF, priority order for fixed priorities.
func TestProfileTasksOrder(t *testing.T) {
	s := task.PaperTaskSet().ByMode(task.FS)
	edf, err := Compile(s, EDF)
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range edf.Tasks() {
		if tk != s[i] {
			t.Fatalf("EDF task %d = %+v, want declaration order", i, tk)
		}
	}
	rm, err := Compile(s, RM)
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range rm.Tasks() {
		if tk != s.SortedRM()[i] {
			t.Fatalf("RM task %d = %+v, want priority order", i, tk)
		}
	}
}
