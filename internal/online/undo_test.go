package online

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/region"
	"repro/internal/task"
)

// profileState is what undo must restore of one locked channel: an
// exclusive copy of its profile (stream, owner counts and demand row
// included), its task multiset, and the candidate state.
type profileState struct {
	prof    *analysis.Profile
	tasks   []string
	minq    float64
	scanned float64
	patches int
}

func captureState(tc *touchedChannel, p float64) profileState {
	names := tc.st.prof.Tasks().Names()
	slices.Sort(names)
	return profileState{
		prof:    tc.st.prof.Thawed(),
		tasks:   names,
		minq:    tc.minq,
		scanned: tc.st.prof.MinQ(p),
		patches: tc.patches,
	}
}

// TestUndoRestoresEveryPrefix drives the undo log through an admit →
// shed → readmit → evict sequence on a manager whose channels are all
// locked, and undoes the whole log after every prefix. Each touched
// profile must come back to its state before the operation, bit for
// bit: the unsettled MinQ scan of its demand row, its stream length,
// its task multiset, Check (its rows equal a fresh Compile of its
// tasks, which are the ones it held before, so the rows are the rows
// it had) and Equal against a copy taken before. The guests cover the
// patch's bail-outs: FS/1's T = 7 stretches the hyperperiod (a
// fallback on admit and on its undo), the off-grid NF/0 guest has
// three deadlines to tau1's one, so its shed trims the row, and the
// evicted resident tau5 empties NF/3.
func TestUndoRestoresEveryPrefix(t *testing.T) {
	for _, alg := range fuzzAlgs {
		t.Run(alg.String(), func(t *testing.T) {
			pr := core.Problem{Tasks: task.PaperTaskSet(), Alg: alg, O: core.UniformOverheads(task.PaperOverheadTotal)}
			sol, err := design.Solve(pr, design.MaxFlexibility, region.Options{})
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewManager(pr, sol.Config)
			if err != nil {
				t.Fatal(err)
			}
			guests := task.Set{
				{Name: "g1", C: 0.05, T: 12, D: 12, Mode: task.FT, Channel: 0},
				{Name: "g2", C: 0.05, T: 2, D: 1.4321, Mode: task.NF, Channel: 0},
				{Name: "g3", C: 0.05, T: 7, D: 7, Mode: task.FS, Channel: 1},
			}
			tau5 := pr.Tasks[4]
			steps := []struct {
				name string
				do   func(sc *opScratch) error
			}{
				{"admit", func(sc *opScratch) error { _, err := m.patchGroups(sc, guests, true); return err }},
				{"shed", func(sc *opScratch) error { return m.patchOne(sc, guests[1], false) }},
				{"readmit", func(sc *opScratch) error { return m.patchOne(sc, guests[1], true) }},
				{"evict", func(sc *opScratch) error { return m.patchOne(sc, tau5, false) }},
			}
			for k := 0; k <= len(steps); k++ {
				sc := new(opScratch)
				m.lockAll(sc)
				before := make([]profileState, len(sc.touched))
				for i := range sc.touched {
					before[i] = captureState(&sc.touched[i], m.p)
				}
				var done []string
				for _, s := range steps[:k] {
					if err := s.do(sc); err != nil {
						t.Fatalf("%s after %v: %v", s.name, done, err)
					}
					done = append(done, s.name)
				}
				if want := []int{0, 3, 4, 5, 6}[k]; len(sc.log) != want { // the admit patches three channels
					t.Fatalf("after %v the log holds %d patches, want %d", done, len(sc.log), want)
				}
				m.undo(sc, 0)
				if len(sc.log) != 0 || len(sc.logged) != 0 {
					t.Fatalf("undo after %v left %d patches and %d tasks logged", done, len(sc.log), len(sc.logged))
				}
				for i := range sc.touched {
					tc := &sc.touched[i]
					assertRestored(t, tc, before[i], m.p, fmt.Sprintf("%v/%d after undoing %v", tc.st.mode, tc.st.ch, done))
				}
				sc.unlock()
			}
			if err := m.CheckProfiles(); err != nil {
				t.Fatal(err)
			}
			if err := m.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func assertRestored(t *testing.T, tc *touchedChannel, want profileState, p float64, stage string) {
	t.Helper()
	got := captureState(tc, p)
	if math.Float64bits(got.minq) != math.Float64bits(want.minq) || got.patches != want.patches {
		t.Fatalf("%s: candidate minq %v and %d patches, want %v and %d", stage, got.minq, got.patches, want.minq, want.patches)
	}
	if math.Float64bits(got.scanned) != math.Float64bits(want.scanned) {
		t.Fatalf("%s: MinQ(%v) = %v, want %v", stage, p, got.scanned, want.scanned)
	}
	if g, w := tc.st.prof.MemStats(), want.prof.MemStats(); g.RetainedPoints != w.RetainedPoints || g.LiveCells != w.LiveCells {
		t.Fatalf("%s: %d stream points and %d row cells, want %d and %d", stage, g.RetainedPoints, g.LiveCells, w.RetainedPoints, w.LiveCells)
	}
	if !slices.Equal(got.tasks, want.tasks) {
		t.Fatalf("%s: tasks %v, want %v", stage, got.tasks, want.tasks)
	}
	if err := tc.st.prof.Check(); err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	if !tc.st.prof.Equal(want.prof) {
		t.Fatalf("%s: the profile differs from its state before the operation", stage)
	}
}
