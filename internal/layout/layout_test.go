package layout

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/supply"
	"repro/internal/task"
)

func paperProblem() core.Problem {
	return core.Problem{
		Tasks: task.PaperTaskSet(),
		Alg:   analysis.EDF,
		O:     core.UniformOverheads(task.PaperOverheadTotal),
	}
}

func TestCountsValidate(t *testing.T) {
	if err := (Counts{1, 2, 4}).Validate(); err != nil {
		t.Errorf("valid counts rejected: %v", err)
	}
	if err := (Counts{}).Normalize().Validate(); err != nil {
		t.Errorf("normalised zero counts should validate: %v", err)
	}
	if err := (Counts{FT: -1, FS: 1, NF: 1}).Validate(); err == nil {
		t.Error("negative count should be rejected")
	}
	if err := (Counts{FT: 32, FS: 1, NF: 1}).Validate(); err == nil {
		t.Error("absurd count should be rejected")
	}
	if (Counts{1, 2, 3}).Of(task.Mode(9)) != 0 {
		t.Error("unknown mode should report 0")
	}
}

func TestBuildUniformMatchesConfig(t *testing.T) {
	// Counts (1,1,1) with the paper's Table 2(b) quanta reproduce the
	// slot structure of the equivalent Config: same slack, one interval
	// per mode, FT/FS/NF order.
	pr := paperProblem()
	quanta := core.PerMode{FT: 0.8204, FS: 1.2814, NF: 0.8146}
	l, err := Build(2.9664, Counts{1, 1, 1}, quanta, pr.O)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Patterns[task.FT].Intervals) != 1 ||
		len(l.Patterns[task.FS].Intervals) != 1 ||
		len(l.Patterns[task.NF].Intervals) != 1 {
		t.Error("uniform counts should give one interval per mode")
	}
	if math.Abs(l.Slack()-0.0) > 1e-3 {
		t.Errorf("slack = %g, want ≈ 0 (boundary design)", l.Slack())
	}
	// FT before FS before NF.
	ft := l.Patterns[task.FT].Intervals[0]
	fs := l.Patterns[task.FS].Intervals[0]
	nf := l.Patterns[task.NF].Intervals[0]
	if !(ft.End <= fs.Start && fs.End <= nf.Start) {
		t.Errorf("modes out of order: FT %v, FS %v, NF %v", ft, fs, nf)
	}
	if err := Verify(l, pr.Tasks, pr.Alg); err != nil {
		t.Errorf("paper-boundary layout should verify: %v", err)
	}
}

func TestBuildNonUniform(t *testing.T) {
	// FS twice per period: two frames, FS in both, FT/NF only in the
	// first.
	l, err := Build(2.0, Counts{FT: 1, FS: 2, NF: 1},
		core.PerMode{FT: 0.3, FS: 0.4, NF: 0.3}, core.UniformOverheads(0.03))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(l.Patterns[task.FS].Intervals); n != 2 {
		t.Errorf("FS should have 2 sub-slots, got %d", n)
	}
	if n := len(l.Patterns[task.FT].Intervals); n != 1 {
		t.Errorf("FT should have 1 sub-slot, got %d", n)
	}
	// Each FS sub-slot carries half the quantum.
	for _, iv := range l.Patterns[task.FS].Intervals {
		if math.Abs(iv.Length()-0.2) > 1e-9 {
			t.Errorf("FS sub-slot length %g, want 0.2", iv.Length())
		}
	}
	// Consumed = ΣQ̃ + 1·O_FT + 2·O_FS + 1·O_NF.
	wantConsumed := 0.3 + 0.4 + 0.3 + 0.01*(1+2+1)
	if math.Abs(l.Consumed-wantConsumed) > 1e-9 {
		t.Errorf("consumed %g, want %g", l.Consumed, wantConsumed)
	}
}

func TestBuildOverflow(t *testing.T) {
	_, err := Build(1.0, Counts{1, 1, 1}, core.PerMode{FT: 0.5, FS: 0.5, NF: 0.5}, core.Overheads{})
	if err == nil {
		t.Error("1.5 of quanta cannot fit a period of 1")
	}
	if _, err := Build(0, Counts{1, 1, 1}, core.PerMode{}, core.Overheads{}); err == nil {
		t.Error("zero period should be rejected")
	}
	if _, err := Build(1, Counts{1, 1, 1}, core.PerMode{FT: -1}, core.Overheads{}); err == nil {
		t.Error("negative quantum should be rejected")
	}
}

func TestSolveNonUniformBeatsUniformPeriod(t *testing.T) {
	// The showcase: at P = 6 the single-slot design is hopeless (τ9's
	// deadline is 4 < the FS starvation gap), and so is any uniform
	// split of all three modes. Giving only FS more sub-slots makes the
	// period feasible while FT still pays its overhead once.
	pr := paperProblem()
	if _, err := Solve(pr, 6.0, Counts{1, 1, 1}); err == nil {
		t.Fatal("P=6 with single slots should be infeasible (τ9 would starve)")
	}
	l, err := Solve(pr, 6.0, Counts{FT: 1, FS: 4, NF: 2})
	if err != nil {
		t.Fatalf("non-uniform layout should rescue P=6: %v", err)
	}
	if err := Verify(l, pr.Tasks, pr.Alg); err != nil {
		t.Fatalf("solved layout must verify: %v", err)
	}
	if l.Slack() < 0 {
		t.Errorf("negative slack %g", l.Slack())
	}
	// FT recurs once: exactly one FT interval in the as-built layout.
	if n := len(l.Patterns[task.FT].Intervals); n != 1 {
		t.Errorf("FT intervals = %d, want 1", n)
	}
	if n := len(l.Patterns[task.FS].Intervals); n != 4 {
		t.Errorf("FS intervals = %d, want 4", n)
	}
}

func TestSolveUniformAgreesWithConfigFor(t *testing.T) {
	// With counts (1,1,1) Solve must accept periods the linear-bound
	// design accepts (exact supply only helps) and produce a verified
	// layout with at-most-equal consumption.
	pr := paperProblem()
	for _, p := range []float64{0.8, 1.6, 2.4} {
		cfg, err := pr.ConfigFor(p)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Solve(pr, p, Counts{1, 1, 1})
		if err != nil {
			t.Fatalf("P=%g: %v", p, err)
		}
		if l.Consumed > cfg.Q.Total()+1e-6 {
			t.Errorf("P=%g: exact layout consumes %g, linear design %g", p, l.Consumed, cfg.Q.Total())
		}
	}
}

func TestSolveErrors(t *testing.T) {
	pr := paperProblem()
	if _, err := Solve(core.Problem{}, 1, Counts{}); err == nil {
		t.Error("invalid problem should error")
	}
	if _, err := Solve(pr, 30, Counts{1, 1, 1}); err == nil {
		t.Error("absurd period should error")
	}
	if _, err := Solve(pr, 1, Counts{FT: 20, FS: 1, NF: 1}); err == nil {
		t.Error("count beyond bound should error")
	}
}

func TestBestUniformSplit(t *testing.T) {
	// The best uniform split up to k = 4 is a scan over Counts{k, k, k}
	// for the least consumption. At P = 2 the k = 1 split is feasible,
	// so the scan finds a design at least as good, and every layout it
	// sees has k sub-slots per mode.
	pr := paperProblem()
	k1, err := Solve(pr, 2.0, Counts{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	best := k1
	for k := 2; k <= 4; k++ {
		l, err := Solve(pr, 2.0, Counts{k, k, k})
		if err != nil {
			continue
		}
		for _, m := range task.Modes() {
			if n := len(l.Patterns[m].Intervals); n != k {
				t.Errorf("k=%d: %s has %d sub-slots, want %d", k, m, n, k)
			}
		}
		if l.Consumed < best.Consumed {
			best = l
		}
	}
	if best.Slack() < 0 {
		t.Errorf("best split (counts %+v) has negative slack %g", best.Counts, best.Slack())
	}
	// A period far beyond the tightest deadline (τ9's D = 4) cannot be
	// rescued by splitting: with two sub-slots the frames are still 15
	// long.
	for k := 1; k <= 2; k++ {
		if _, err := Solve(pr, 30, Counts{k, k, k}); err == nil {
			t.Errorf("P=30 k=%d: absurd period should have no feasible split", k)
		}
	}
}

func TestSolveUniformSplitErrors(t *testing.T) {
	pr := paperProblem()
	// An invalid period is reported as the caller's P, not as the P/k
	// of one sub-slot's frame.
	for k := 1; k <= 2; k++ {
		if _, err := Solve(pr, -1, Counts{k, k, k}); err == nil || !strings.Contains(err.Error(), "P = -1 ") {
			t.Errorf("k=%d negative period: got %v, want it refused as P = -1", k, err)
		}
	}
	if _, err := Solve(pr, 2, Counts{-1, -1, -1}); err == nil {
		t.Error("negative count should error")
	}
	if _, err := Solve(core.Problem{}, 2, Counts{1, 1, 1}); err == nil {
		t.Error("invalid problem should error")
	}
}

func TestSolveUniformSplitPaperProblem(t *testing.T) {
	pr := paperProblem()
	// At the single-slot boundary period the k=1 split must also be
	// feasible (exact analysis dominates the linear bound the boundary
	// was computed with).
	l, err := Solve(pr, 2.9, Counts{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if l.Slack() < 0 {
		t.Errorf("negative slack %g", l.Slack())
	}
	// Beyond the single-slot maximum (2.966 with the linear bound),
	// splitting in two still finds a design: the delay halves.
	l2, err := Solve(pr, 3.4, Counts{2, 2, 2})
	if err != nil {
		t.Fatalf("P=3.4 with k=2 should be feasible: %v", err)
	}
	for _, m := range task.Modes() {
		if n := len(l2.Patterns[m].Intervals); n != 2 {
			t.Errorf("%s has %d sub-slots, want 2", m, n)
		}
	}
}

func TestSplitOverheadTradeoff(t *testing.T) {
	// With zero overheads, more sub-slots never hurt: allocation is
	// monotone non-increasing in k.
	free := paperProblem()
	free.O = core.Overheads{}
	prev := math.Inf(1)
	for k := 1; k <= 3; k++ {
		l, err := Solve(free, 2.0, Counts{k, k, k})
		if err != nil {
			t.Fatal(err)
		}
		alloc := l.Consumed / l.P
		if alloc > prev+1e-9 {
			t.Errorf("zero-overhead allocation grew at k=%d: %g > %g", k, alloc, prev)
		}
		prev = alloc
	}
	// With heavy overheads, k=1 must beat k=3: each extra switch costs.
	costly := paperProblem()
	costly.O = core.UniformOverheads(0.15)
	k1, err := Solve(costly, 2.0, Counts{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	k3, err := Solve(costly, 2.0, Counts{3, 3, 3})
	if err == nil && k3.Consumed < k1.Consumed {
		t.Errorf("heavy overheads: k=3 consumes %g, less than k=1's %g", k3.Consumed, k1.Consumed)
	}
}

func TestUniformSplitEquivalentToShorterPeriod(t *testing.T) {
	// k evenly spaced sub-slots of q/k over period P form the same
	// periodic pattern as a single slot of q/k over period P/k, so the
	// uniform split Counts{k, k, k} needs k·MinQExact(P/k) per channel,
	// and the layout Build makes of it is that pattern: every layout
	// Solve returns holds, per mode, exactly the largest
	// k·MinQExact(P/k) over the mode's channels, its start quanta, with
	// no inflation step taken.
	feasible := 0
	for _, alg := range []analysis.Alg{analysis.EDF, analysis.RM, analysis.DM} {
		for _, oTot := range []float64{0, 0.05, 0.15} {
			pr := core.Problem{Tasks: task.PaperTaskSet(), Alg: alg, O: core.UniformOverheads(oTot)}
			for _, p := range []float64{1.3, 1.7, 2.0, 2.9, 3.4} {
				for k := 1; k <= 4; k++ {
					l, err := Solve(pr, p, Counts{k, k, k})
					if err != nil {
						continue
					}
					feasible++
					for _, m := range task.Modes() {
						want := 0.0
						for _, ch := range pr.Tasks.Channels(m) {
							q, _, err := supply.MinQExact(ch, alg, p/float64(k))
							if err != nil {
								t.Fatal(err)
							}
							want = max(want, float64(k)*q)
						}
						if got := l.Quanta.Of(m); got != want {
							t.Errorf("%s O=%g P=%g k=%d: %s quantum %v, want k·MinQExact(P/k) = %v",
								alg, oTot, p, k, m, got, want)
						}
					}
				}
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no uniform split is feasible")
	}
	t.Logf("%d feasible uniform splits, none inflated", feasible)
}
