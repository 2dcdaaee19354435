package repro

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/timeu"
)

// facade_test exercises every public wrapper so that the umbrella API is
// proven wired to the right internals (each delegate has its own deep
// tests in its package).

func TestFacadeTaskSetIO(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTaskSet(&buf, PaperTaskSet()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTaskSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 13 {
		t.Errorf("round trip lost tasks: %d", len(got))
	}
	if _, err := ReadTaskSet(strings.NewReader("junk")); err == nil {
		t.Error("junk should be rejected")
	}
}

func TestFacadeFormatters(t *testing.T) {
	b, c, err := DesignBoth(PaperProblem(EDF))
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatSolutions(b, c); !strings.Contains(s, "max-flexibility") {
		t.Error("FormatSolutions incomplete")
	}
	var buf bytes.Buffer
	pts, err := Explore(PaperProblem(EDF), ExploreOptions{PMax: 1, Samples: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSweepCSV(&buf, map[string][]SweepPoint{"edf": pts}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "series,P,lhs") {
		t.Error("CSV header missing")
	}
}

func TestFacadeExploreParallel(t *testing.T) {
	pr := PaperProblem(EDF)
	opts := ExploreOptions{PMax: 2, Samples: 64}
	seq, err := Explore(pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ExploreParallel(pr, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatal("parallel sweep diverged")
		}
	}
}

func TestFacadeCriticalScaling(t *testing.T) {
	f, err := CriticalScaling(PaperProblem(EDF), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if f <= 1 {
		t.Errorf("interior scaling factor %g should exceed 1", f)
	}
}

func TestFacadePartitionWrappers(t *testing.T) {
	got, err := AutoPartitionWith(PaperTaskSet(), PartitionOptions{
		Heuristic: partition.FirstFit,
		Alg:       EDF,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFacadeOnline(t *testing.T) {
	pr := PaperProblem(EDF)
	sol, err := Design(pr, MaxFlexibility)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewOnlineManager(pr, sol.Config)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Slack() <= 0 {
		t.Error("max-flexibility design should have slack")
	}
	if err := mgr.Admit(Task{Name: "huge", C: 5, T: 10, Mode: FT}); err == nil {
		t.Error("huge task should be rejected")
	}
}

func TestFacadeLayout(t *testing.T) {
	pr := PaperProblem(EDF)
	l, err := SolveLayout(pr, 6.0, SubSlotCounts{FT: 1, FS: 4, NF: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateLayout(l, pr.Tasks, EDF, SimOptions{Horizon: timeu.FromUnits(240), Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMisses() != 0 {
		t.Errorf("layout design missed deadlines:\n%s", res.Summary())
	}
	// The non-uniform layout rescues a period the single-slot design
	// space cannot reach at all (max feasible single-slot P ≈ 2.97).
	if maxP, err := MaxFeasiblePeriod(pr, ExploreOptions{}); err != nil || l.P <= maxP {
		t.Errorf("showcase broken: layout P %g should exceed single-slot max %g (%v)", l.P, maxP, err)
	}
}

func TestFacadeConstantsCoherent(t *testing.T) {
	if FT.Channels() != 1 || FS.Channels() != 2 || NF.Channels() != 4 {
		t.Error("mode aliases broken")
	}
	if EDF.String() != "EDF" || RM.String() != "RM" || DM.String() != "DM" {
		t.Error("alg aliases broken")
	}
	if math.Abs(PaperOverheadTotal-0.05) > 1e-12 {
		t.Error("paper overhead constant wrong")
	}
}
