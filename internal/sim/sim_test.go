package sim

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/task"
	"repro/internal/timeu"
)

// toyConfig builds a deliberately simple layout used by the fault tests:
// period 2, per-mode slots of 0.5 with 0.1 overhead, so the usable
// windows per period are FT [0.1,0.5), FS [0.6,1.0), NF [1.1,1.5) and
// [1.5,2.0) is slack.
func toyConfig() core.Config {
	return core.Config{
		P: 2,
		Q: core.PerMode{FT: 0.5, FS: 0.5, NF: 0.5},
		O: core.PerMode{FT: 0.1, FS: 0.1, NF: 0.1},
	}
}

// toyTasks puts one light task on FT, FS/0 and NF/0.
func toyTasks() task.Set {
	return task.Set{
		{Name: "ft", C: 1, T: 10, D: 10, Mode: task.FT, Channel: 0},
		{Name: "fs", C: 1, T: 10, D: 10, Mode: task.FS, Channel: 0},
		{Name: "nf", C: 1, T: 10, D: 10, Mode: task.NF, Channel: 0},
	}
}

func mustRun(t *testing.T, cfg core.Config, ts task.Set, alg analysis.Alg, opts Options) *Result {
	t.Helper()
	s, err := New(cfg, ts, alg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewValidation(t *testing.T) {
	if _, err := New(core.Config{}, toyTasks(), analysis.EDF); err == nil {
		t.Error("invalid config should be rejected")
	}
	if _, err := New(toyConfig(), nil, analysis.EDF); err == nil {
		t.Error("empty task set should be rejected")
	}
	if _, err := New(toyConfig(), task.Set{{Name: "x", C: -1, T: 1, D: 1}}, analysis.EDF); err == nil {
		t.Error("invalid task should be rejected")
	}
	if _, err := New(toyConfig(), toyTasks(), analysis.Alg(9)); err == nil {
		t.Error("unknown algorithm should be rejected")
	}
	// Periods that round to 0 ticks: Run divides by the period.
	tiny := core.Config{P: 4e-10, Q: core.PerMode{FT: 1e-10, FS: 1e-10, NF: 1e-10}}
	if err := tiny.Validate(); err != nil {
		t.Fatalf("the sub-tick config must pass Config.Validate: %v", err)
	}
	if _, err := New(tiny, toyTasks(), analysis.EDF); err == nil {
		t.Error("sub-tick period should be rejected")
	}
	if _, err := NewWindows(1e-10, nil, nil, toyTasks(), analysis.EDF); err == nil {
		t.Error("sub-tick window period should be rejected")
	}
}

func TestFaultFreeBasics(t *testing.T) {
	res := mustRun(t, toyConfig(), toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(20)})
	for _, name := range []string{"ft", "fs", "nf"} {
		ts := res.Tasks[name]
		if ts == nil {
			t.Fatalf("no stats for %s", name)
		}
		if ts.Released != 2 {
			t.Errorf("%s: released %d jobs in 20 units with T=10, want 2", name, ts.Released)
		}
		if ts.Completed != 2 {
			t.Errorf("%s: completed %d, want 2", name, ts.Completed)
		}
		if ts.Missed != 0 {
			t.Errorf("%s: %d misses in a feasible fault-free run", name, ts.Missed)
		}
	}
	if res.TotalFaults != 0 || res.Masked != 0 || res.Silenced != 0 || res.Corruptions != 0 {
		t.Error("fault counters should be zero without an injector")
	}
}

func TestConservationInvariant(t *testing.T) {
	res := mustRun(t, toyConfig(), toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(40)})
	for id, cs := range res.Channels {
		if cs.Busy > cs.Service {
			t.Errorf("%s: busy %s exceeds service %s", id, cs.Busy, cs.Service)
		}
		if cs.Busy <= 0 {
			t.Errorf("%s: channel never executed", id)
		}
	}
	// Executed time equals completed work: each task completed 4 jobs of
	// C = 1 → busy per channel = 4 time units.
	for id, cs := range res.Channels {
		if want := timeu.FromUnits(4); cs.Busy != want {
			t.Errorf("%s: busy = %s, want %s", id, cs.Busy, want)
		}
	}
}

func TestPlatformTimeConservation(t *testing.T) {
	// Windows + overheads + slack account for the whole horizon, and the
	// ledger matches the configuration's analytic proportions over whole
	// periods.
	cfg := toyConfig()
	horizon := timeu.FromUnits(40) // 20 whole periods of 2
	res := mustRun(t, cfg, toyTasks(), analysis.EDF, Options{Horizon: horizon})
	var windows timeu.Ticks
	for _, m := range task.Modes() {
		windows += res.ModeService[m]
	}
	if got := windows + res.OverheadTime + res.SlackTime; got != horizon {
		t.Errorf("windows %s + overhead %s + slack %s = %s, want %s",
			windows, res.OverheadTime, res.SlackTime, got, horizon)
	}
	// 20 periods × 0.4 usable per mode, × 0.3 overhead total, × 0.5 slack.
	if want := timeu.FromUnits(8); res.ModeService[task.FT] != want {
		t.Errorf("FT service %s, want %s", res.ModeService[task.FT], want)
	}
	if want := timeu.FromUnits(6); res.OverheadTime != want {
		t.Errorf("overhead %s, want %s", res.OverheadTime, want)
	}
	if want := timeu.FromUnits(10); res.SlackTime != want {
		t.Errorf("slack %s, want %s", res.SlackTime, want)
	}
	// Channel busy time never exceeds its mode's service time.
	for id, cs := range res.Channels {
		if cs.Busy > res.ModeService[id.Mode] {
			t.Errorf("%s: busy %s exceeds mode service %s", id, cs.Busy, res.ModeService[id.Mode])
		}
	}
}

func TestPlatformTimePartialPeriod(t *testing.T) {
	// A horizon cutting mid-slot still conserves exactly.
	cfg := toyConfig()
	horizon := timeu.FromUnits(3.3) // one period + 1.3 into the second
	res := mustRun(t, cfg, toyTasks(), analysis.EDF, Options{Horizon: horizon})
	var windows timeu.Ticks
	for _, m := range task.Modes() {
		windows += res.ModeService[m]
	}
	if got := windows + res.OverheadTime + res.SlackTime; got != horizon {
		t.Errorf("partial-period ledger %s != horizon %s", got, horizon)
	}
}

func TestResponseTimesWithinSupplyBound(t *testing.T) {
	// The analysis promises response ≤ Δ + C/α for a lone task on its
	// channel. Check the simulated max response against that bound.
	cfg := toyConfig()
	res := mustRun(t, cfg, toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(40)})
	for _, m := range task.Modes() {
		alpha := cfg.Alpha(m)
		delta := cfg.Delta(m)
		bound := timeu.FromUnitsUp(delta + 1/alpha)
		var name string
		switch m {
		case task.FT:
			name = "ft"
		case task.FS:
			name = "fs"
		case task.NF:
			name = "nf"
		}
		if got := res.Tasks[name].MaxResponse; got > bound {
			t.Errorf("%s: max response %s exceeds supply bound %s", name, got, bound)
		}
	}
}

func TestMaskedFaultInFTWindow(t *testing.T) {
	// Fault inside the FT usable window: majority vote masks it; no
	// behavioural change at all.
	inj := faults.Script{{At: timeu.FromUnits(0.2), Core: 2, Duration: timeu.FromUnits(0.1)}}
	res := mustRun(t, toyConfig(), toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(20), Injector: inj})
	if res.Masked != 1 {
		t.Errorf("Masked = %d, want 1", res.Masked)
	}
	if res.TotalMisses() != 0 || res.Silenced != 0 || res.Corruptions != 0 {
		t.Error("a masked fault must not disturb anything")
	}
	if res.Tasks["ft"].Completed != 2 {
		t.Errorf("ft completed %d, want 2", res.Tasks["ft"].Completed)
	}
}

func TestSilencedFaultKillsFSJob(t *testing.T) {
	// Fault at 0.7 on core 1 hits FS channel 0 (cores {0,1}) while the
	// fs job is executing: the checker blocks the channel and the job
	// dies silently.
	inj := faults.Script{{At: timeu.FromUnits(0.7), Core: 1, Duration: timeu.FromUnits(0.1)}}
	res := mustRun(t, toyConfig(), toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(10), Injector: inj})
	ts := res.Tasks["fs"]
	if ts.Aborted != 1 {
		t.Errorf("fs aborted = %d, want 1", ts.Aborted)
	}
	if res.Silenced != 1 {
		t.Errorf("Silenced = %d, want 1", res.Silenced)
	}
	if ts.Completed != 0 {
		t.Errorf("fs completed = %d, want 0 (no recovery policy)", ts.Completed)
	}
	// The wrong result never propagated: no corruption, and the other
	// modes are untouched.
	if res.Corruptions != 0 || res.Tasks["ft"].Completed != 1 || res.Tasks["nf"].Completed != 1 {
		t.Error("FS silencing must stay contained to the FS channel")
	}
}

func TestSilencedFaultOnOtherFSChannel(t *testing.T) {
	// Same fault on core 3 → FS channel 1, which holds no tasks: the fs
	// job on channel 0 is unaffected.
	inj := faults.Script{{At: timeu.FromUnits(0.7), Core: 3, Duration: timeu.FromUnits(0.1)}}
	res := mustRun(t, toyConfig(), toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(10), Injector: inj})
	if res.Tasks["fs"].Aborted != 0 || res.Tasks["fs"].Completed != 1 {
		t.Error("fault on the idle FS pair must not kill the busy pair's job")
	}
}

func TestCorruptedNFJob(t *testing.T) {
	// Fault at 1.2 on core 0 during the NF window while the nf job runs:
	// the job completes on time but its result is wrong and undetected.
	inj := faults.Script{{At: timeu.FromUnits(1.2), Core: 0, Duration: timeu.FromUnits(0.1)}}
	res := mustRun(t, toyConfig(), toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(10), Injector: inj})
	ts := res.Tasks["nf"]
	if res.Corruptions != 1 || ts.Corrupted != 1 {
		t.Errorf("corruptions = %d / task corrupted = %d, want 1/1", res.Corruptions, ts.Corrupted)
	}
	if ts.Completed != 1 || ts.Missed != 0 {
		t.Error("a corrupted NF job still completes on time")
	}
}

func TestCorruptionOnIdleNFCore(t *testing.T) {
	// Core 2's NF channel holds no tasks: the fault corrupts nothing.
	inj := faults.Script{{At: timeu.FromUnits(1.2), Core: 2, Duration: timeu.FromUnits(0.1)}}
	res := mustRun(t, toyConfig(), toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(10), Injector: inj})
	if res.Corruptions != 0 {
		t.Errorf("corruptions = %d, want 0", res.Corruptions)
	}
}

func TestHarmlessFaultInSlack(t *testing.T) {
	// Fault at 1.7 falls in the slack region: no service window overlaps.
	inj := faults.Script{{At: timeu.FromUnits(1.7), Core: 0, Duration: timeu.FromUnits(0.1)}}
	res := mustRun(t, toyConfig(), toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(10), Injector: inj})
	if res.HarmlessFaults != 1 {
		t.Errorf("HarmlessFaults = %d, want 1", res.HarmlessFaults)
	}
	if res.TotalMisses() != 0 || res.Silenced != 0 || res.Corruptions != 0 || res.Masked != 0 {
		t.Error("slack-time fault must have no effect")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	inj := faults.Poisson{Rate: 0.05, Duration: timeu.FromUnits(0.2), Seed: 11}
	seq := mustRun(t, toyConfig(), toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(200), Injector: inj})
	par := mustRun(t, toyConfig(), toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(200), Injector: inj, Parallel: true})
	if seq.Summary() != par.Summary() {
		t.Errorf("parallel run diverged from sequential:\n--- sequential\n%s--- parallel\n%s", seq.Summary(), par.Summary())
	}
}

func TestStarvedModeMissesDeadlines(t *testing.T) {
	// Give NF a uselessly small quantum: its task must miss.
	cfg := toyConfig()
	cfg.Q = cfg.Q.With(task.NF, 0.11) // 0.01 usable per period of 2 → rate 0.005
	res := mustRun(t, cfg, toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(40)})
	if res.Tasks["nf"].Missed == 0 {
		t.Error("starved NF task should miss deadlines")
	}
	if res.Tasks["ft"].Missed != 0 || res.Tasks["fs"].Missed != 0 {
		t.Error("other modes must be unaffected by NF starvation")
	}
}

func TestTraceCollection(t *testing.T) {
	inj := faults.Script{{At: timeu.FromUnits(0.7), Core: 0, Duration: timeu.FromUnits(0.1)}}
	res := mustRun(t, toyConfig(), toyTasks(), analysis.EDF,
		Options{Horizon: timeu.FromUnits(10), Injector: inj, CollectTrace: true})
	if res.Trace == nil {
		t.Fatal("trace requested but absent")
	}
	if len(res.Trace.Segments) == 0 {
		t.Error("no execution segments recorded")
	}
	if res.Trace.Count(0) == 0 { // Release
		t.Error("no release events recorded")
	}
	gantt := res.Trace.Gantt(0, timeu.FromUnits(2), 40)
	if !strings.Contains(gantt, "#") {
		t.Errorf("Gantt should show execution:\n%s", gantt)
	}
	// Without the flag the trace must be nil (and tracing free).
	res2 := mustRun(t, toyConfig(), toyTasks(), analysis.EDF, Options{Horizon: timeu.FromUnits(10)})
	if res2.Trace != nil {
		t.Error("trace present without CollectTrace")
	}
}

func TestDefaultHorizonIsHyperperiod(t *testing.T) {
	res := mustRun(t, toyConfig(), toyTasks(), analysis.EDF, Options{})
	if res.Horizon != timeu.FromUnits(10) {
		t.Errorf("default horizon = %s, want the hyperperiod 10", res.Horizon)
	}
}

func TestFixedPriorityDispatchOrder(t *testing.T) {
	// Two NF tasks on one channel: under RM the short-period task always
	// preempts; its response time must equal its WCET stretched only by
	// window gaps, never by the long task.
	cfg := toyConfig()
	ts := task.Set{
		{Name: "hi", C: 0.2, T: 4, D: 4, Mode: task.NF, Channel: 0},
		{Name: "lo", C: 1.0, T: 20, D: 20, Mode: task.NF, Channel: 0},
	}
	res := mustRun(t, cfg, ts, analysis.RM, Options{Horizon: timeu.FromUnits(40)})
	if res.Tasks["hi"].Missed != 0 || res.Tasks["lo"].Missed != 0 {
		t.Fatalf("unexpected misses: %s", res.Summary())
	}
	// hi is released at the NF window closed phase: it waits ≤ Δ then
	// runs 0.2 inside one window. Response must stay below one period of
	// the slot cycle plus its computation.
	if got, bound := res.Tasks["hi"].MaxResponse, timeu.FromUnits(2.0); got > bound {
		t.Errorf("hi max response %s exceeds %s", got, bound)
	}
}
