package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/points"
	"repro/internal/task"
)

// FeasibleEDF scans the demand row demandRow builds; the point oracle
// feasibleEDFAtPoints evaluates DemandBound point by point on its own
// stream. The tests below hold the first to the second.

// feasibleEDFAtPoints is Theorem 2 checked the direct way: DemandBound
// at every deadline points.Deadlines emits up to the hyperperiod. Its
// checks and errors come in FeasibleEDF's order.
func feasibleEDFAtPoints(s task.Set, sp Supply) (bool, error) {
	if err := sp.Validate(); err != nil {
		return false, err
	}
	if len(s) == 0 {
		return true, nil
	}
	if s.Utilization() > sp.Alpha+1e-12 {
		return false, nil
	}
	h, err := s.Hyperperiod(HyperperiodDenominator)
	if err != nil {
		return false, err
	}
	dls, err := points.Deadlines(s, h)
	if err != nil {
		return false, err
	}
	for _, t := range dls {
		if sp.Delta > t-DemandBound(s, t)/sp.Alpha+feasTol {
			return false, nil
		}
	}
	return true, nil
}

// randomDemandSet draws 1–8 tasks over demandGrid with WCETs scaled to
// a total utilisation in [0.3, 1.05]: on-grid deadlines (D = T, or an
// integer D ≤ T), or, with offGrid, randomOffGrid's four-decimal ones.
func randomDemandSet(rng *rand.Rand, offGrid bool) task.Set {
	s := make(task.Set, 1+rng.Intn(8))
	for i := range s {
		tk := randomOffGrid(rng)
		if !offGrid {
			tk.D = tk.T
			if rng.Intn(2) == 0 {
				tk.D = float64(1 + rng.Intn(int(tk.T)))
			}
		}
		tk.Name = fmt.Sprintf("t%d", i)
		tk.C = rng.Float64()
		s[i] = tk
	}
	scale := (0.3 + 0.75*rng.Float64()) / s.Utilization()
	for i := range s {
		s[i].C = math.Min(s[i].C*scale, s[i].D)
	}
	return s
}

// TestFeasibleEDFMatchesPointOracle checks FeasibleEDF against the
// per-point oracle on the full processor and on slot supplies at the
// MinQ inversion boundary (Q = minQ(P), and one ulp-scale step to each
// side), where the comparison decides on its last bits.
func TestFeasibleEDFMatchesPointOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 3000; trial++ {
		s := randomDemandSet(rng, trial%2 == 1)
		supplies := []Supply{Full}
		for _, p := range []float64{0.5 + 2*rng.Float64(), 4 * rng.Float64()} {
			q, err := MinQ(s, EDF, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, dq := range []float64{0, -1e-9, 1e-9, math.Nextafter(q, 0) - q} {
				if qq := q + dq; qq > 0 && qq <= p {
					supplies = append(supplies, Supply{Alpha: qq / p, Delta: p - qq})
				}
			}
		}
		for _, sp := range supplies {
			got, err := FeasibleEDF(s, sp)
			want, wantErr := feasibleEDFAtPoints(s, sp)
			if err != nil || wantErr != nil || got != want {
				t.Fatalf("trial %d %v α=%v Δ=%v: FeasibleEDF = %v, %v; point oracle %v, %v",
					trial, s, sp.Alpha, sp.Delta, got, err, want, wantErr)
			}
			if got {
				feasible++
			} else {
				infeasible++
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("%d feasible and %d infeasible verdicts: the cases miss a side", feasible, infeasible)
	}
}

// TestFeasibleEDFErrorPrecedence pins what FeasibleEDF returns beyond
// the tick and stream ranges, in the oracle's order: a demand beyond
// int64 ticks is infeasible, not an error, and a stream beyond
// points.MaxStream is the stream bound's error even when the demand
// also overflows.
func TestFeasibleEDFErrorPrecedence(t *testing.T) {
	big := task.Task{Name: "big", C: 1e10, T: 1e10, D: 1e10, Mode: task.NF}
	half := task.Task{Name: "half", C: 5e9, T: 1e10, D: 1e10, Mode: task.NF}
	half2 := half
	half2.Name = "half2"
	for _, s := range []task.Set{{big}, {half, half2}} {
		got, err := FeasibleEDF(s, Full)
		want, wantErr := feasibleEDFAtPoints(s, Full)
		if got || err != nil || want || wantErr != nil {
			t.Errorf("%v: FeasibleEDF = %v, %v; point oracle %v, %v; want infeasible", s.Names(), got, err, want, wantErr)
		}
	}
	heavy := task.Task{Name: "heavy", C: 0.99e10, T: 1e10, D: 1e10, Mode: task.NF}
	tiny := task.Task{Name: "tiny", C: 1e-6, T: 1e-3, D: 1e-3, Mode: task.NF}
	s := task.Set{heavy, tiny}
	_, streamErr := points.Deadlines(s, 1e10)
	if streamErr == nil {
		t.Fatal("the stream of heavy and tiny passes points.MaxStream")
	}
	_, err := FeasibleEDF(s, Full)
	_, wantErr := feasibleEDFAtPoints(s, Full)
	if err == nil || err.Error() != streamErr.Error() || wantErr == nil || wantErr.Error() != err.Error() {
		t.Errorf("FeasibleEDF error %v, point oracle %v; want the stream bound's %v", err, wantErr, streamErr)
	}
}

// TestFeasibleEDFAllocatesNothing holds FeasibleEDF, the test behind
// every partition probe, to zero allocations on a warm pool: on the
// paper's NF channels and on a feasible 40-task channel, whose whole
// row is scanned.
func TestFeasibleEDFAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	channels := task.PaperTaskSet().Channels(task.NF)
	rng := rand.New(rand.NewSource(40))
	wide := make(task.Set, 40)
	for i := range wide {
		T := demandGrid[i%len(demandGrid)]
		wide[i] = task.Task{Name: fmt.Sprintf("w%d", i), C: T * (0.01 + 0.01*rng.Float64()), T: T, D: T, Mode: task.NF}
	}
	channels = append(channels, wide)
	for i, s := range channels {
		ok, err := FeasibleEDF(s, Full)
		if err != nil || !ok {
			t.Fatalf("channel %d (%v): FeasibleEDF = %v, %v; want feasible", i, s.Names(), ok, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = FeasibleEDF(s, Full) }); n != 0 {
			t.Errorf("channel %d (%d tasks): %v allocations per FeasibleEDF, want 0", i, len(s), n)
		}
	}
}
