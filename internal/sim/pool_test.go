package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/faults"
	"repro/internal/online"
	"repro/internal/region"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/timeu"
)

// residencyDigest hashes a canonical text form of a Replay's
// residencies: each tenure's task, window and stats, in order.
func residencyDigest(rs []sim.Residency) string {
	h := sha256.New()
	for _, r := range rs {
		ts := r.Stats
		fmt.Fprintf(h, "%q %d/%d %v %v %v [%d, %d) rel %d done %d miss %d abort %d rec %d corr %d canc %d tlate %d maxr %d sumr %d\n",
			r.Task.Name, int(r.Task.Mode), r.Task.Channel, r.Task.C, r.Task.T, r.Task.D, int64(r.From), int64(r.To),
			ts.Released, ts.Completed, ts.Missed, ts.Aborted, ts.Recovered, ts.Corrupted,
			ts.Cancelled, ts.TransitionLate, int64(ts.MaxResponse), int64(ts.SumResponse))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// poolReplay replays a storm touching every event kind against a fresh
// manager on the paper's max-flexibility design, under faults that
// abort FS jobs, with a re-issuing recovery policy and a trace.
func poolReplay(t *testing.T) *sim.ScenarioResult {
	t.Helper()
	pr := core.Problem{
		Tasks: task.PaperTaskSet(),
		Alg:   analysis.EDF,
		O:     core.UniformOverheads(task.PaperOverheadTotal),
	}
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := design.Solve(pr, design.MaxFlexibility, region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := online.NewManagerFromCompiled(cp, sol.Config)
	if err != nil {
		t.Fatal(err)
	}
	u := timeu.FromUnits
	sc := sim.Scenario{Events: []sim.WorkloadEvent{
		{At: u(10), Kind: sim.EventAdmit, Tasks: task.Set{
			{Name: "g1", C: 0.05, T: 8, D: 8, Mode: task.NF, Channel: 0},
			{Name: "g2", C: 0.05, T: 10, D: 10, Mode: task.FS, Channel: 1},
		}},
		{At: u(30), Kind: sim.EventAdmitPartial, Tasks: task.Set{
			{Name: "g3", C: 0.05, T: 12, D: 12, Mode: task.FS, Channel: 0},
			{Name: "whale", C: 40, T: 60, D: 60, Mode: task.FT, Channel: 0},
		}},
		{At: u(55), Kind: sim.EventRevoke, Capacity: 0.05},
		{At: u(90), Kind: sim.EventRemove, Names: []string{"g1"}},
		{At: u(120), Kind: sim.EventRestore, Capacity: 0.05},
		{At: u(150), Kind: sim.EventRemove, Names: []string{"tau3", "g2"}},
	}}
	sr, err := sim.Replay(m, sc, sim.ScenarioOptions{Options: sim.Options{
		Horizon:      u(240),
		Injector:     faults.Poisson{Rate: 0.2, Duration: u(0.3), Seed: 5},
		Recovery:     reissue{},
		CollectTrace: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Epochs < 3 || sr.Silenced == 0 || len(sr.Residencies) <= len(pr.Tasks) {
		t.Fatalf("replay too tame to exercise the pool: %d epochs, %d aborts, %d residencies",
			sr.Epochs, sr.Silenced, len(sr.Residencies))
	}
	return sr
}

// TestPooledRunsIsolated checks that pooled engines carry nothing from
// one run into the next and that nothing a run returns aliases them.
// It runs the pinned cases twice in one process, the second pass in
// reverse order with a Replay and a parallel run between cases, and
// demands the pinned digest every time; then it re-digests a Result
// from each case of the first pass, and a Replay's Result and
// residencies from before the second pass, which a later run must not
// have written through.
func TestPooledRunsIsolated(t *testing.T) {
	cases := pinnedCases()
	sims := make([]*sim.Simulator, len(cases))
	for i, c := range cases {
		sims[i] = c.build(t)
	}

	kept := make([]*sim.Result, len(cases))
	for i, c := range cases {
		kept[i] = c.run(t, sims[i], false)
	}
	first := poolReplay(t)
	wantResult, wantResidencies := resultDigest(&first.Result), residencyDigest(first.Residencies)

	for i := len(cases) - 1; i >= 0; i-- {
		sr := poolReplay(t)
		if got := resultDigest(&sr.Result); got != wantResult {
			t.Errorf("before %s: replay result digest %s, want %s", cases[i].name, got, wantResult)
		}
		if got := residencyDigest(sr.Residencies); got != wantResidencies {
			t.Errorf("before %s: replay residency digest %s, want %s", cases[i].name, got, wantResidencies)
		}
		cases[i].run(t, sims[i], true)
		cases[i].run(t, sims[i], false)
	}

	for i, c := range cases {
		if got := resultDigest(kept[i]); got != c.want {
			t.Errorf("%s: a first-pass result changed under later runs: digest %s, want %s", c.name, got, c.want)
		}
	}
	if got := resultDigest(&first.Result); got != wantResult {
		t.Errorf("the first replay's result changed under later runs: digest %s, want %s", got, wantResult)
	}
	if got := residencyDigest(first.Residencies); got != wantResidencies {
		t.Errorf("the first replay's residencies changed under later runs: digest %s, want %s", got, wantResidencies)
	}
}

// TestWarmRunAllocations holds a warm sequential Simulator.Run of the
// paper's EDF design to a fixed number of allocations whatever its
// horizon: the engines, their buffers and their job records come from
// the pool, and what is left is the Result and a slab of residency
// stats per channel. The counts may differ by two, for a run that
// refills a pool a garbage collection emptied.
func TestWarmRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates and sync.Pool drops items under it")
	}
	pr := core.Problem{
		Tasks: task.PaperTaskSet(),
		Alg:   analysis.EDF,
		O:     core.UniformOverheads(task.PaperOverheadTotal),
	}
	sol, err := design.Solve(pr, design.MinOverheadBandwidth, region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sol.Config, pr.Tasks, pr.Alg)
	if err != nil {
		t.Fatal(err)
	}
	hyper, err := pr.Tasks.Hyperperiod(analysis.HyperperiodDenominator)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 40
	var counts []float64
	for _, k := range []float64{1, 10, 100} {
		opts := sim.Options{Horizon: timeu.FromUnits(k * hyper)}
		var released int
		allocs := testing.AllocsPerRun(100, func() {
			res, err := s.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			released = res.TotalReleased()
		})
		t.Logf("%g hyperperiods: %d jobs, %g allocs per run", k, released, allocs)
		if allocs > bound {
			t.Errorf("%g hyperperiods: %g allocs per warm run, want at most %d", k, allocs, bound)
		}
		counts = append(counts, allocs)
	}
	for _, n := range counts[1:] {
		if d := n - counts[0]; d > 2 || d < -2 {
			t.Errorf("allocs per warm run grow with the horizon: %v at 1, 10 and 100 hyperperiods", counts)
			break
		}
	}
}
