package analysis

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/points"
	"repro/internal/task"
)

// demandGrid is a period grid whose hyperperiod is 120, the one the
// admission benchmark's residents use.
var demandGrid = []float64{4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120}

// randomOffGrid draws a task with a period from demandGrid and a random
// four-decimal deadline D ≤ T, charging one time unit per job so that
// DemandBound reads as a job count.
func randomOffGrid(rng *rand.Rand) task.Task {
	T := demandGrid[rng.Intn(len(demandGrid))]
	D := float64(1+rng.Intn(int(T*1e4))) / 1e4
	return task.Task{Name: "x", C: 1, T: T, D: D, Mode: task.NF}
}

// TestDemandBoundOffGridDeadline pins the rounding defect of the
// ⌊(t+T−D)/T⌋ count: at its own first deadline this task has one job
// due, but (2.5665 + 4 − 2.5665)/4 rounds to 0.9999999999999999.
func TestDemandBoundOffGridDeadline(t *testing.T) {
	s := task.Set{{Name: "x", C: 1, T: 4, D: 2.5665}}
	if got := DemandBound(s, 2.5665); got != 1 {
		t.Fatalf("DemandBound at the first deadline = %g, want 1", got)
	}
	if got := DemandBoundJitter(s, nil, 2.5665); got != 1 {
		t.Fatalf("DemandBoundJitter at the first deadline = %g, want 1", got)
	}
}

// TestDemandBoundCountsGeneratedDeadlines is the job-count property:
// at the k-th point a task's deadline generator emits, DemandBound
// counts exactly k+1 jobs, and one ulp earlier exactly k — over random
// four-decimal deadlines, where the float floor used to lose jobs.
func TestDemandBoundCountsGeneratedDeadlines(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 5000; trial++ {
		tk := randomOffGrid(rng)
		s := task.Set{tk}
		for k, dl := range points.TaskDeadlines(tk, 120) {
			if got := DemandBound(s, dl); got != float64(k+1) {
				t.Fatalf("T=%g D=%g: DemandBound at deadline %d (t=%v) = %g jobs, want %d",
					tk.T, tk.D, k, dl, got, k+1)
			}
			if got := DemandBound(s, math.Nextafter(dl, 0)); got != float64(k) {
				t.Fatalf("T=%g D=%g: DemandBound just before deadline %d (t=%v) = %g jobs, want %d",
					tk.T, tk.D, k, dl, got, k)
			}
		}
	}
}

// TestDemandBoundJitterCountsGeneratedDeadlines is the same property
// with release jitter: at the k-th point of the shifted stream that
// jitterDeadlines emits, W_J counts exactly k+1 jobs.
func TestDemandBoundJitterCountsGeneratedDeadlines(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5000; trial++ {
		tk := randomOffGrid(rng)
		j := Jitter{tk.Name: math.Floor(rng.Float64()*tk.D*1e4) / 1e4}
		s := task.Set{tk}
		dls, err := jitterDeadlines(s, j, 120+j[tk.Name])
		if err != nil {
			t.Fatal(err)
		}
		for k, dl := range dls {
			if got := DemandBoundJitter(s, j, dl); got != float64(k+1) {
				t.Fatalf("T=%g D=%g J=%g: W_J at point %d (t=%v) = %g jobs, want %d",
					tk.T, tk.D, j[tk.Name], k, dl, got, k+1)
			}
		}
	}
}

// TestDemandChargesEngineTicks pins the unit of the exact demand: a
// job charges its WCET rounded up to whole ticks, the work the
// simulator executes.
func TestDemandChargesEngineTicks(t *testing.T) {
	s := task.Set{{Name: "x", C: 0.1234567891, T: 4, D: 4}}
	if got, want := DemandBound(s, 8), 2*0.123456790; got != want {
		t.Fatalf("DemandBound = %v, want %v (two jobs of C rounded up to ticks)", got, want)
	}
}

// TestDemandOverflow pins the behaviour beyond the int64 tick range:
// DemandBound saturates to +Inf, which the feasibility test reads as
// infeasible; Compile, MinQ and AddTasks return an error, and a failed
// AddTasks leaves the profile unchanged.
func TestDemandOverflow(t *testing.T) {
	big := task.Task{Name: "big", C: 1e10, T: 1e10, D: 1e10, Mode: task.NF}
	half := task.Task{Name: "half", C: 5e9, T: 1e10, D: 1e10, Mode: task.NF}
	half2 := half
	half2.Name = "half2"
	for _, s := range []task.Set{{big}, {half, half2}} {
		if got := DemandBound(s, 1e10); !math.IsInf(got, 1) {
			t.Errorf("%v: DemandBound = %g, want +Inf", s.Names(), got)
		}
		if ok, err := FeasibleEDF(s, Full); err != nil || ok {
			t.Errorf("%v: FeasibleEDF = %v, %v; want infeasible", s.Names(), ok, err)
		}
		if _, err := Compile(s, EDF); !errors.Is(err, errOverflow) {
			t.Errorf("%v: Compile error = %v, want overflow", s.Names(), err)
		}
		if _, err := MinQ(s, EDF, 1); !errors.Is(err, errOverflow) {
			t.Errorf("%v: MinQ error = %v, want overflow", s.Names(), err)
		}
	}
	if got := DemandBoundJitter(task.Set{big}, nil, 1e10); !math.IsInf(got, 1) {
		t.Errorf("DemandBoundJitter = %g, want +Inf", got)
	}
	pf, err := CompileMutable(task.Set{half}, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.AddTasks([]task.Task{half2}); !errors.Is(err, errOverflow) {
		t.Fatalf("AddTasks error = %v, want overflow", err)
	}
	fresh, err := Compile(task.Set{half}, EDF)
	if err != nil {
		t.Fatal(err)
	}
	assertProfileIdentical(t, "after overflowing AddTasks", pf, fresh)
}

// TestReleasesPessimisticAtSteps confirms the rounding direction of
// ⌈t/T⌉ in RequestBound and ResponseTime: evaluated at a float-rounded
// release k·T it never counts fewer than the k jobs released before it.
func TestReleasesPessimisticAtSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200000; trial++ {
		T := float64(1+rng.Intn(1200000)) / 1e4
		k := rng.Intn(1000)
		if got := releases(points.Deadline(k, T, 0), T); got < float64(k) {
			t.Fatalf("releases(%d·%g) = %g, want ≥ %d", k, T, got, k)
		}
	}
}
