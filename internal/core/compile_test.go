package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/task"
	"repro/internal/workload"
)

func compileGrid(pMax float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = pMax * float64(i+1) / float64(n)
	}
	return out
}

// TestCompiledLHSBitIdentical is the core acceptance property of the
// compiled layer: CompiledProblem.LHS and .MinQuanta must reproduce the
// naive Problem methods bit for bit, so every consumer rewired onto the
// compiled path produces byte-identical results.
func TestCompiledLHSBitIdentical(t *testing.T) {
	problems := []Problem{
		{Tasks: task.PaperTaskSet(), Alg: analysis.EDF, O: UniformOverheads(0.05)},
		{Tasks: task.PaperTaskSet(), Alg: analysis.RM, O: UniformOverheads(0.05)},
		{Tasks: task.PaperTaskSet(), Alg: analysis.DM, O: UniformOverheads(0.05)},
	}
	for seed := int64(1); seed <= 10; seed++ {
		s, err := workload.Generate(workload.Config{N: 12, TotalUtilization: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		problems = append(problems, Problem{Tasks: s, Alg: analysis.EDF, O: UniformOverheads(0.02)})
		problems = append(problems, Problem{Tasks: s, Alg: analysis.RM, O: UniformOverheads(0.02)})
	}
	for _, pr := range problems {
		cp, err := pr.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range compileGrid(7.0, 300) {
			wantQ, err := pr.MinQuanta(p)
			if err != nil {
				t.Fatal(err)
			}
			if gotQ := cp.MinQuanta(p); gotQ != wantQ {
				t.Fatalf("%s P=%g: compiled MinQuanta %+v, naive %+v", pr.Alg, p, gotQ, wantQ)
			}
			wantLHS, err := pr.LHS(p)
			if err != nil {
				t.Fatal(err)
			}
			if gotLHS := cp.LHS(p); gotLHS != wantLHS {
				t.Fatalf("%s P=%g: compiled LHS %x, naive %x", pr.Alg, p, gotLHS, wantLHS)
			}
			wantOK, err := pr.FeasiblePeriod(p)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK := cp.FeasiblePeriod(p); gotOK != wantOK {
				t.Fatalf("%s P=%g: compiled FeasiblePeriod %v, naive %v", pr.Alg, p, gotOK, wantOK)
			}
		}
	}
}

func TestCompiledConfigForMatchesNaive(t *testing.T) {
	pr := Problem{Tasks: task.PaperTaskSet(), Alg: analysis.EDF, O: UniformOverheads(0.05)}
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range compileGrid(3.0, 60) {
		want, wantErr := pr.ConfigFor(p)
		got, gotErr := cp.ConfigFor(p)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("P=%g: error mismatch: naive %v, compiled %v", p, wantErr, gotErr)
		}
		if wantErr == nil && got != want {
			t.Fatalf("P=%g: compiled config %+v, naive %+v", p, got, want)
		}
	}
	if _, err := cp.ConfigFor(0); err == nil {
		t.Error("ConfigFor(0): want error, got none")
	}
}

// TestCompiledLHSZeroAllocs verifies the sweep inner loop allocates
// nothing once the problem is compiled.
func TestCompiledLHSZeroAllocs(t *testing.T) {
	pr := Problem{Tasks: task.PaperTaskSet(), Alg: analysis.EDF, O: UniformOverheads(0.05)}
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		sink += cp.LHS(1.9)
	})
	if allocs != 0 {
		t.Errorf("CompiledProblem.LHS allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}

func TestCompileRejectsBadTask(t *testing.T) {
	pr := Problem{
		Tasks: task.Set{{Name: "bad", C: 1, T: 0, D: 3, Mode: task.FT}},
		Alg:   analysis.EDF,
		O:     UniformOverheads(0.05),
	}
	if _, err := pr.Compile(); err == nil {
		t.Error("Compile with T = 0 task: want error, got none")
	}
}

// TestCompiledWithTaskMatchesRecompile checks the what-if threading: a
// compiled problem grown (or shrunk) by one task must answer MinQuanta
// bit-identically to recompiling the changed problem from scratch, while
// leaving the receiver untouched.
func TestCompiledWithTaskMatchesRecompile(t *testing.T) {
	pr := Problem{Tasks: task.PaperTaskSet(), Alg: analysis.EDF, O: UniformOverheads(0.05)}
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	guest := task.Task{Name: "guest", C: 0.2, T: 10, Mode: task.NF, Channel: 3}
	grown, err := cp.WithTasks([]task.Task{guest})
	if err != nil {
		t.Fatal(err)
	}
	// WithTasks normalises the newcomer; the oracle must see the same task.
	grownPr := Problem{
		Tasks: append(append(task.Set(nil), pr.Tasks...), guest.Normalized()),
		Alg:   pr.Alg, O: pr.O,
	}
	fresh, err := grownPr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range compileGrid(6.0, 200) {
		if got, want := grown.MinQuanta(p), fresh.MinQuanta(p); got != want {
			t.Fatalf("P=%g: incremental MinQuanta %+v, recompiled %+v", p, got, want)
		}
	}
	for _, m := range task.Modes() {
		for ch, prof := range grown.ChannelProfiles(m) {
			if !prof.Equal(fresh.ChannelProfiles(m)[ch]) {
				t.Fatalf("mode %s channel %d: incremental profile differs from recompile", m, ch)
			}
		}
	}
	if len(grown.Problem().Tasks) != len(pr.Tasks)+1 {
		t.Fatal("grown problem should carry the guest")
	}
	if len(cp.Problem().Tasks) != len(pr.Tasks) {
		t.Fatal("WithTasks mutated the receiver's task set")
	}
	// And back out again.
	back, err := grown.WithoutTasks([]string{"guest"})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range task.Modes() {
		for ch, prof := range back.ChannelProfiles(m) {
			if !prof.Equal(orig.ChannelProfiles(m)[ch]) {
				t.Fatalf("mode %s channel %d: round-trip profile differs from original", m, ch)
			}
		}
	}
}

// TestCompiledWithTaskErrors covers rejection paths: invalid tasks,
// unknown and empty removal names.
func TestCompiledWithTaskErrors(t *testing.T) {
	pr := Problem{Tasks: task.PaperTaskSet(), Alg: analysis.EDF, O: UniformOverheads(0.05)}
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.WithTasks([]task.Task{{Name: "bad", C: -1, T: 5}}); err == nil {
		t.Error("invalid task should be rejected")
	}
	if _, err := cp.WithoutTasks([]string{"ghost"}); err == nil {
		t.Error("unknown name should be rejected")
	}
	if _, err := cp.WithoutTasks([]string{""}); err == nil {
		t.Error("empty name should be rejected")
	}
}

// TestCompiledWithTasksMatchesSequential checks the batched what-if
// API: WithTasks/WithoutTasks must produce per-channel profiles
// bit-identical to folding one-task WithTasks/WithoutTasks over the
// batch (and hence to a fresh compile), leave the receiver untouched,
// and round-trip back to the original problem.
func TestCompiledWithTasksMatchesSequential(t *testing.T) {
	for _, alg := range []analysis.Alg{analysis.EDF, analysis.RM} {
		pr := Problem{Tasks: task.PaperTaskSet(), Alg: alg, O: UniformOverheads(0.05)}
		cp, err := pr.Compile()
		if err != nil {
			t.Fatal(err)
		}
		batch := []task.Task{
			{Name: "b1", C: 0.2, T: 10, Mode: task.NF, Channel: 3},
			{Name: "b2", C: 0.1, T: 8, Mode: task.NF, Channel: 3}, // same channel as b1
			{Name: "b3", C: 0.1, T: 12, Mode: task.FS, Channel: 1},
			{Name: "b4", C: 0.3, T: 15, D: 9, Mode: task.FT, Channel: 0},
		}
		grown, err := cp.WithTasks(batch)
		if err != nil {
			t.Fatal(err)
		}
		seq := cp
		for _, tk := range batch {
			if seq, err = seq.WithTasks([]task.Task{tk}); err != nil {
				t.Fatalf("%s: WithTasks(%s): %v", alg, tk.Name, err)
			}
		}
		for _, m := range task.Modes() {
			seqProfs := seq.ChannelProfiles(m)
			for ch, prof := range grown.ChannelProfiles(m) {
				if !prof.Equal(seqProfs[ch]) {
					t.Fatalf("%s: mode %s channel %d: batched profile differs from sequential fold", alg, m, ch)
				}
			}
		}
		for i, tk := range grown.Problem().Tasks {
			if i < len(pr.Tasks) {
				continue
			}
			if want := batch[i-len(pr.Tasks)].Normalized(); tk != want {
				t.Fatalf("%s: grown task %d = %+v, want %+v", alg, i, tk, want)
			}
		}
		for _, p := range compileGrid(6.0, 50) {
			if got, want := grown.MinQuanta(p), seq.MinQuanta(p); got != want {
				t.Fatalf("%s P=%g: batched MinQuanta %+v, sequential %+v", alg, p, got, want)
			}
		}
		if len(cp.Problem().Tasks) != len(pr.Tasks) {
			t.Fatalf("%s: WithTasks mutated the receiver", alg)
		}
		// Batched removal round-trips to the original.
		back, err := grown.WithoutTasks([]string{"b1", "b2", "b3", "b4"})
		if err != nil {
			t.Fatal(err)
		}
		orig, err := pr.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range task.Modes() {
			origProfs := orig.ChannelProfiles(m)
			for ch, prof := range back.ChannelProfiles(m) {
				if !prof.Equal(origProfs[ch]) {
					t.Fatalf("%s: mode %s channel %d: round-trip profile differs from original", alg, m, ch)
				}
			}
		}
		if got, want := len(back.Problem().Tasks), len(pr.Tasks); got != want {
			t.Fatalf("%s: round-trip task count %d, want %d", alg, got, want)
		}
	}
}

// TestCompiledWithTasksErrors pins the all-or-nothing batch contract:
// any invalid member rejects the whole batch up front, and the receiver
// stays usable afterwards.
func TestCompiledWithTasksErrors(t *testing.T) {
	pr := Problem{Tasks: task.PaperTaskSet(), Alg: analysis.EDF, O: UniformOverheads(0.05)}
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ok := task.Task{Name: "fine", C: 0.1, T: 10, Mode: task.NF, Channel: 0}
	cases := [][]task.Task{
		{ok, {Name: "bad", C: -1, T: 5, Mode: task.NF}},
		{ok, {C: 0.1, T: 10, Mode: task.NF}},               // unnamed
		{ok, {Name: "fine", C: 0.1, T: 12, Mode: task.FS}}, // duplicate within batch
		{ok, {Name: "tau1", C: 0.1, T: 12, Mode: task.NF}}, // already present
	}
	for i, batch := range cases {
		if _, err := cp.WithTasks(batch); err == nil {
			t.Errorf("case %d: invalid batch accepted", i)
		}
	}
	if _, err := cp.WithoutTasks([]string{"tau1", "ghost"}); err == nil {
		t.Error("batch with unknown name accepted")
	}
	if _, err := cp.WithoutTasks([]string{"tau1", "tau1"}); err == nil {
		t.Error("batch listing a name twice accepted")
	}
	if _, err := cp.WithoutTasks([]string{""}); err == nil {
		t.Error("batch with empty name accepted")
	}
	if got, err := cp.WithTasks(nil); err != nil || got != cp {
		t.Errorf("empty WithTasks should return the receiver, got (%p, %v)", got, err)
	}
	if got, err := cp.WithoutTasks(nil); err != nil || got != cp {
		t.Errorf("empty WithoutTasks should return the receiver, got (%p, %v)", got, err)
	}
	if len(cp.Problem().Tasks) != len(pr.Tasks) {
		t.Error("failed batches mutated the receiver")
	}
}
