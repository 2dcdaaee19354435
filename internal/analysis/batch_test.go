package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/task"
)

// TestWithTasksMatchesSequentialFold is the core exactness property of
// the batched constructors: WithTasks(batch) must be bit-identical —
// retained streams included — to folding one-task WithTasks over the
// batch in order, and both to a fresh Compile of the final set (the
// independent oracle). Batches are drawn randomly from the churn pool, so they mix
// on-grid merges, brand-new points and hyperperiod-stretching fallbacks.
func TestWithTasksMatchesSequentialFold(t *testing.T) {
	pool := churnPool()
	for _, alg := range []Alg{EDF, RM, DM} {
		t.Run(alg.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(alg) + 41))
			for trial := 0; trial < 60; trial++ {
				perm := rng.Perm(len(pool))
				split := 1 + rng.Intn(len(pool)-1)
				base := make(task.Set, 0, split)
				for _, i := range perm[:split] {
					base = append(base, pool[i])
				}
				batch := make([]task.Task, 0, len(pool)-split)
				for _, i := range perm[split:] {
					batch = append(batch, pool[i])
				}
				pf, err := Compile(base, alg)
				if err != nil {
					t.Fatal(err)
				}
				batched, err := pf.WithTasks(batch)
				if err != nil {
					t.Fatalf("trial %d: WithTasks: %v", trial, err)
				}
				seq := pf
				for _, tk := range batch {
					if seq, err = seq.WithTasks([]task.Task{tk}); err != nil {
						t.Fatalf("trial %d: WithTasks(%s): %v", trial, tk.Name, err)
					}
				}
				assertProfileIdentical(t, "batched vs sequential", batched, seq)
				fresh, err := Compile(append(append(task.Set(nil), base...), batch...), alg)
				if err != nil {
					t.Fatal(err)
				}
				assertProfileIdentical(t, "batched vs fresh Compile", batched, fresh)
			}
		})
	}
}

// TestWithoutTasksMatchesSequentialFold is the removal-side property:
// WithoutTasks(batch) equals the one-task WithoutTasks fold and the
// full-compile oracle, for random victim subsets in random orders.
func TestWithoutTasksMatchesSequentialFold(t *testing.T) {
	pool := churnPool()
	for _, alg := range []Alg{EDF, RM, DM} {
		t.Run(alg.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(alg) + 43))
			for trial := 0; trial < 60; trial++ {
				pf, err := Compile(pool, alg)
				if err != nil {
					t.Fatal(err)
				}
				perm := rng.Perm(len(pool))
				k := 1 + rng.Intn(len(pool)-1)
				victims := make([]task.Task, 0, k)
				gone := make(map[string]bool, k)
				for _, i := range perm[:k] {
					victims = append(victims, pool[i])
					gone[pool[i].Name] = true
				}
				batched, err := pf.WithoutTasks(victims)
				if err != nil {
					t.Fatalf("trial %d: WithoutTasks: %v", trial, err)
				}
				seq := pf
				for _, tk := range victims {
					if seq, err = seq.WithoutTasks([]task.Task{tk}); err != nil {
						t.Fatalf("trial %d: WithoutTasks(%s): %v", trial, tk.Name, err)
					}
				}
				assertProfileIdentical(t, "batched vs sequential", batched, seq)
				surv := make(task.Set, 0, len(pool)-k)
				for _, tk := range pool {
					if !gone[tk.Name] {
						surv = append(surv, tk)
					}
				}
				fresh, err := Compile(surv, alg)
				if err != nil {
					t.Fatal(err)
				}
				assertProfileIdentical(t, "batched vs fresh Compile", batched, fresh)
			}
		})
	}
}

// TestBatchedChurnRoundTrips interleaves batched admissions and
// removals — including remove-then-readmit of the same names — checking
// the profile against the full-compile oracle after every batch.
func TestBatchedChurnRoundTrips(t *testing.T) {
	pool := churnPool()
	for _, alg := range []Alg{EDF, RM, DM} {
		t.Run(alg.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(alg) + 47))
			pf, err := Compile(nil, alg)
			if err != nil {
				t.Fatal(err)
			}
			var live task.Set
			for step := 0; step < 120; step++ {
				in := make(map[string]bool, len(live))
				for _, tk := range live {
					in[tk.Name] = true
				}
				var out task.Set
				for _, tk := range pool {
					if !in[tk.Name] {
						out = append(out, tk)
					}
				}
				if len(out) > 0 && (len(live) == 0 || rng.Intn(2) == 0) {
					k := 1 + rng.Intn(len(out))
					batch := append(task.Set(nil), out[:k]...)
					if pf, err = pf.WithTasks(batch); err != nil {
						t.Fatalf("step %d: WithTasks: %v", step, err)
					}
					live = append(live, batch...)
				} else {
					k := 1 + rng.Intn(len(live))
					perm := rng.Perm(len(live))
					batch := make([]task.Task, 0, k)
					gone := make(map[string]bool, k)
					for _, i := range perm[:k] {
						batch = append(batch, live[i])
						gone[live[i].Name] = true
					}
					if pf, err = pf.WithoutTasks(batch); err != nil {
						t.Fatalf("step %d: WithoutTasks: %v", step, err)
					}
					surv := make(task.Set, 0, len(live)-k)
					for _, tk := range live {
						if !gone[tk.Name] {
							surv = append(surv, tk)
						}
					}
					live = surv
				}
				fresh, err := Compile(live, alg)
				if err != nil {
					t.Fatalf("step %d: oracle Compile: %v", step, err)
				}
				assertProfileIdentical(t, "after batch", pf, fresh)
			}
		})
	}
}

// TestBatchedEdgeCases pins the contract details: empty batches return
// the receiver, invalid or absent tasks error without touching it, and
// a single-element batch repeated off the same receiver (which shares
// its index with both results) gives the same profile.
func TestBatchedEdgeCases(t *testing.T) {
	s := task.PaperTaskSet().ByMode(task.FT)
	for _, alg := range []Alg{EDF, RM} {
		pf, err := Compile(s, alg)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := pf.WithTasks(nil); err != nil || got != pf {
			t.Errorf("%s: empty WithTasks should return the receiver, got (%p, %v)", alg, got, err)
		}
		if got, err := pf.WithoutTasks(nil); err != nil || got != pf {
			t.Errorf("%s: empty WithoutTasks should return the receiver, got (%p, %v)", alg, got, err)
		}
		if _, err := pf.WithTasks([]task.Task{{Name: "ok", C: 0.1, T: 5, D: 5}, {Name: "bad", C: -1, T: 5, D: 5}}); err == nil {
			t.Errorf("%s: WithTasks with an invalid member should error", alg)
		}
		if _, err := pf.WithoutTasks([]task.Task{s[0], {Name: "ghost", C: 1, T: 5, D: 5}}); err == nil {
			t.Errorf("%s: WithoutTasks with an absent member should error", alg)
		}
		// A task listed twice can only be removed if present twice.
		if _, err := pf.WithoutTasks([]task.Task{s[0], s[0]}); err == nil {
			t.Errorf("%s: removing the same task twice should error", alg)
		}
		guest := task.Task{Name: "solo", C: 0.1, T: 10, D: 10}
		one, err := pf.WithTasks([]task.Task{guest})
		if err != nil {
			t.Fatal(err)
		}
		single, err := pf.WithTasks([]task.Task{guest})
		if err != nil {
			t.Fatal(err)
		}
		assertProfileIdentical(t, alg.String()+" k=1 batch", one, single)
		fresh, err := Compile(s, alg)
		if err != nil {
			t.Fatal(err)
		}
		assertProfileIdentical(t, alg.String()+" receiver untouched", pf, fresh)
	}
}
