package analysis

import (
	"math"
	"slices"
	"testing"

	"repro/internal/task"
	"repro/internal/workload"
)

// profileTol is the satellite acceptance tolerance: the compiled
// Profile.MinQ must match the naive oracle MinQ to within 1e-12. The
// tests below additionally count bit-level mismatches, because the
// design goal is exact agreement (the pruning margin keeps every pair
// whose curve comes within floating-point noise of the envelope).
const profileTol = 1e-12

func pGrid(pMax float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = pMax * float64(i+1) / float64(n)
	}
	return out
}

func assertProfileMatchesMinQ(t *testing.T, s task.Set, alg Alg, ps []float64) {
	t.Helper()
	pf, err := Compile(s, alg)
	if err != nil {
		t.Fatalf("%s: Compile: %v", alg, err)
	}
	for _, p := range ps {
		want, err := MinQ(s, alg, p)
		if err != nil {
			t.Fatalf("%s: MinQ(%g): %v", alg, p, err)
		}
		got := pf.MinQ(p)
		if math.Abs(got-want) > profileTol {
			t.Fatalf("%s: Profile.MinQ(%g) = %g, naive MinQ = %g (Δ = %g)",
				alg, p, got, want, got-want)
		}
		if got != want {
			t.Errorf("%s: Profile.MinQ(%g) = %x, naive = %x: within tolerance but not bit-identical",
				alg, p, got, want)
		}
	}
}

func TestProfileMatchesMinQPaperChannels(t *testing.T) {
	s := task.PaperTaskSet()
	ps := pGrid(6.0, 500)
	for _, alg := range []Alg{RM, DM, EDF} {
		for _, m := range task.Modes() {
			for _, ch := range s.Channels(m) {
				assertProfileMatchesMinQ(t, ch, alg, ps)
			}
		}
	}
}

func TestProfileMatchesMinQRandomWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		cfg := workload.Config{
			N:                    10,
			TotalUtilization:     2.5,
			ConstrainedDeadlines: seed%2 == 0,
			Seed:                 seed,
		}
		s, err := workload.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ps := pGrid(8.0, 200)
		for _, alg := range []Alg{RM, DM, EDF} {
			for _, m := range task.Modes() {
				for _, ch := range s.Channels(m) {
					assertProfileMatchesMinQ(t, ch, alg, ps)
				}
			}
		}
	}
}

func TestProfileEmptySet(t *testing.T) {
	for _, alg := range []Alg{RM, DM, EDF} {
		pf, err := Compile(nil, alg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if got := pf.MinQ(2.0); got != 0 {
			t.Errorf("%s: empty profile MinQ = %g, want 0", alg, got)
		}
		if pf.Pairs() != 0 {
			t.Errorf("%s: empty profile has %d pairs", alg, pf.Pairs())
		}
	}
}

func TestProfileRejectsUnknownAlg(t *testing.T) {
	if _, err := Compile(task.PaperTaskSet().ByMode(task.FT), Alg(99)); err == nil {
		t.Error("Compile with unknown algorithm: want error, got none")
	}
}

func TestProfileRejectsNonPositivePeriodTask(t *testing.T) {
	s := task.Set{{Name: "bad", C: 1, T: 0, D: 3}}
	if _, err := Compile(s, EDF); err == nil {
		t.Error("Compile with T = 0 task: want error, got none")
	}
}

func TestProfileMinQNonPositivePeriod(t *testing.T) {
	pf, err := Compile(task.PaperTaskSet().ByMode(task.FT), EDF)
	if err != nil {
		t.Fatal(err)
	}
	if got := pf.MinQ(0); got != 0 {
		t.Errorf("MinQ(0) = %g, want 0", got)
	}
	if got := pf.MinQ(-1); got != 0 {
		t.Errorf("MinQ(-1) = %g, want 0", got)
	}
}

// TestProfileMinQZeroAllocs is the steady-state allocation guarantee of
// the compiled layer: evaluating MinQ must not allocate at all.
func TestProfileMinQZeroAllocs(t *testing.T) {
	s := task.PaperTaskSet().ByMode(task.FT)
	for _, alg := range []Alg{RM, DM, EDF} {
		pf, err := Compile(s, alg)
		if err != nil {
			t.Fatal(err)
		}
		var sink float64
		allocs := testing.AllocsPerRun(200, func() {
			sink += pf.MinQ(1.7)
		})
		if allocs != 0 {
			t.Errorf("%s: Profile.MinQ allocates %.1f/op, want 0", alg, allocs)
		}
		_ = sink
	}
}

// TestProfilePruning checks that the dominance pruning actually removes
// pairs on a workload with a long hyperperiod — the whole point of the
// envelope — while TestProfileMatchesMinQ* above guarantees it never
// changes the result.
func TestProfilePruning(t *testing.T) {
	s := task.PaperTaskSet().ByMode(task.FS) // periods 8, 10, 40: hyperperiod 40
	pf, err := Compile(s, EDF)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Hyperperiod(HyperperiodDenominator)
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, tk := range s {
		full += int(h / tk.T) // deadline count upper bound per task
	}
	if pf.Pairs() >= full {
		t.Errorf("EDF profile retained %d pairs, expected pruning below the %d raw deadlines", pf.Pairs(), full)
	}
}

// TestProfileCheckAndMemStats exercises the audit and accounting
// surface the online layer consolidates on: a fresh Compile passes
// Check with a pinned/live ratio of exactly 1, an incremental chain
// still passes Check while its ratio grows past 1 (the columns a
// departed guest's deadlines opened stay allocated), and a recompile
// resets the ratio.
func TestProfileCheckAndMemStats(t *testing.T) {
	s := task.PaperTaskSet().ByMode(task.FT)
	pf, err := Compile(s, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.Check(); err != nil {
		t.Fatal(err)
	}
	if r := pf.MemStats().Ratio(); r != 1 {
		t.Fatalf("fresh Compile ratio = %g, want 1", r)
	}
	if pf.Fallbacks() != 0 {
		t.Fatalf("fresh Compile fallbacks = %d, want 0", pf.Fallbacks())
	}
	// A guest with a twin period keeps the hyperperiod fixed, so every
	// cycle stays on the incremental path; its off-stream deadlines widen
	// the demand row, which keeps that capacity when it leaves.
	guest := task.Task{Name: "guest", C: 0.05, T: s[0].T, D: s[0].T - 0.4321}
	cur := pf
	for i := 0; i < 4; i++ {
		grown, err := cur.WithTasks([]task.Task{guest})
		if err != nil {
			t.Fatal(err)
		}
		if cur, err = grown.WithoutTasks([]task.Task{guest}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cur.Check(); err != nil {
		t.Fatal(err)
	}
	if cur.Fallbacks() != 0 {
		t.Fatalf("guest churn fell back %d times, want 0", cur.Fallbacks())
	}
	if r := cur.MemStats().Ratio(); r <= 1 {
		t.Fatalf("churned profile ratio = %g, want > 1 (columns left by the guest)", r)
	}
	fresh, err := Compile(cur.Tasks(), EDF)
	if err != nil {
		t.Fatal(err)
	}
	if r := fresh.MemStats().Ratio(); r != 1 {
		t.Fatalf("recompiled ratio = %g, want 1", r)
	}
	// An off-grid guest stretches the hyperperiod: both directions bail
	// to the oracle and say so.
	stretch := task.Task{Name: "stretch", C: 0.01, T: 7, D: 7}
	grown, err := cur.WithTasks([]task.Task{stretch})
	if err != nil {
		t.Fatal(err)
	}
	back, err := grown.WithoutTasks([]task.Task{stretch})
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Fallbacks(); got != 2 {
		t.Fatalf("hyperperiod round trip fallbacks = %d, want 2", got)
	}
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestProfileLongStream compiles and patches a channel whose deadline
// stream is longer than envelope.Prune's packed keys can index (2^16
// points), so every prune takes Prune's comparator path: Compile, an
// in-place AddTasks and DropTasks, and a frozen WithTasks must each
// equal a fresh Compile and answer MinQ like the naive oracle.
func TestProfileLongStream(t *testing.T) {
	if testing.Short() {
		t.Skip("a 70000-point stream is slow under -short")
	}
	base := task.Set{
		{Name: "fast", C: 0.0001, T: 0.001, D: 0.001},
		{Name: "slow", C: 7, T: 70, D: 70},
	}
	// Off the fast task's grid, so the patch splices new points in.
	guest := task.Task{Name: "guest", C: 1, T: 35, D: 20.0005}
	grownSet := append(slices.Clone(base), guest)
	matches := func(stage string, pf *Profile, live task.Set) {
		t.Helper()
		// MinQ first: Equal settles an unsettled profile.
		for _, p := range []float64{0.5, 2, 7} {
			want, err := MinQ(live, EDF, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := pf.MinQ(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: MinQ(%g) = %v, naive MinQ = %v", stage, p, got, want)
			}
		}
		fresh, err := Compile(live, EDF)
		if err != nil {
			t.Fatal(err)
		}
		assertProfileIdentical(t, stage, pf, fresh)
	}
	pf, err := Compile(base, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if n := pf.MemStats().RetainedPoints; n <= 1<<16 {
		t.Fatalf("stream has %d points, want more than %d", n, 1<<16)
	}
	matches("compile", pf, base)
	mu := pf.Thawed()
	if err := mu.AddTasks([]task.Task{guest}); err != nil {
		t.Fatal(err)
	}
	matches("in-place add", mu, grownSet)
	if err := mu.DropTasks([]task.Task{guest}); err != nil {
		t.Fatal(err)
	}
	matches("in-place drop", mu, base)
	grown, err := pf.WithTasks([]task.Task{guest})
	if err != nil {
		t.Fatal(err)
	}
	matches("what-if", grown, grownSet)
	if grown.Fallbacks() != 0 || mu.Fallbacks() != 0 {
		t.Fatalf("fallbacks: what-if %d, in place %d; want 0", grown.Fallbacks(), mu.Fallbacks())
	}
}

func TestHyperperiodOverflowIsAnError(t *testing.T) {
	// Valid periods whose scaled LCM overflows int64, and a period whose
	// scaled value alone does: EDF analysis must refuse them, not panic,
	// whether they are compiled together or added to a profile.
	base := task.Task{Name: "a", C: 1, T: 7.000001, D: 7.000001}
	for _, add := range []task.Set{
		{{Name: "b", C: 1, T: 5.000003, D: 5.000003}, {Name: "c", C: 1, T: 3.000007, D: 3.000007}},
		{{Name: "huge", C: 1, T: 1e300, D: 1e300}},
	} {
		s := append(task.Set{base}, add...)
		if _, err := Compile(s, EDF); err == nil {
			t.Errorf("Compile(%v): want an error", s)
		}
		if q, err := MinQ(s, EDF, 1); err == nil {
			t.Errorf("MinQ(%v) = %g: want an error", s, q)
		}
		pf, err := Compile(s[:1], EDF)
		if err != nil {
			t.Fatal(err)
		}
		if err := pf.Thawed().AddTasks(add); err == nil {
			t.Errorf("AddTasks(%v): want an error", add)
		}
	}
}

func TestStreamBoundIsAnError(t *testing.T) {
	// τ1 alone has hyperperiod 6; a newcomer of period 1e-6 keeps it but
	// brings 6·10^6 deadlines, beyond points.MaxStream. A fresh Compile
	// and an incremental AddTasks must both refuse the candidate.
	tau1 := task.Task{Name: "tau1", C: 1, T: 6, D: 6}
	tiny := task.Task{Name: "tiny", C: 1e-7, T: 1e-6, D: 1e-6}
	if _, err := Compile(task.Set{tau1, tiny}, EDF); err == nil {
		t.Error("Compile: want an error")
	}
	pf, err := Compile(task.Set{tau1}, EDF)
	if err != nil {
		t.Fatal(err)
	}
	th := pf.Thawed()
	if err := th.AddTasks([]task.Task{tiny}); err == nil {
		t.Error("AddTasks: want an error")
	}
	if err := th.Check(); err != nil {
		t.Errorf("profile after the refused AddTasks: %v", err)
	}
}
