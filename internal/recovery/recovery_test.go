package recovery

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/timeu"
)

// The scenario: FS usable window [0.6, 1.0) per period of 2; an FS task
// (C=0.5, T=10) starts at 0.6 and a fault at 0.7 silences the channel
// for 0.1. Without recovery the job dies; with PrimaryBackup a fresh
// copy restarts; with Checkpoint only the residual work is redone.
func scenario() (core.Config, task.Set, faults.Script) {
	cfg := core.Config{
		P: 2,
		Q: core.PerMode{FT: 0.5, FS: 0.5, NF: 0.5},
		O: core.PerMode{FT: 0.1, FS: 0.1, NF: 0.1},
	}
	ts := task.Set{{Name: "fs", C: 0.5, T: 10, D: 10, Mode: task.FS, Channel: 0}}
	inj := faults.Script{{At: timeu.FromUnits(0.7), Core: 0, Duration: timeu.FromUnits(0.1)}}
	return cfg, ts, inj
}

func run(t *testing.T, rec sim.Recovery) *sim.Result {
	t.Helper()
	cfg, ts, inj := scenario()
	s, err := sim.New(cfg, ts, analysis.EDF)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Options{Horizon: timeu.FromUnits(10), Injector: inj, Recovery: rec})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDrop checks the bare fail-silent semantics of a nil recovery:
// the aborted job is dropped, nothing is retried.
func TestDrop(t *testing.T) {
	res := run(t, nil)
	ts := res.Tasks["fs"]
	if ts.Aborted != 1 || ts.Recovered != 0 || ts.Completed != 0 {
		t.Errorf("nil recovery: aborted %d recovered %d completed %d, want 1/0/0", ts.Aborted, ts.Recovered, ts.Completed)
	}
}

// neverReissue is a recovery that drops every aborted job.
type neverReissue struct{}

func (neverReissue) OnAbort(sim.Job, timeu.Ticks) (sim.Job, bool) { return sim.Job{}, false }

// TestNilRecoveryEqualsDrop checks that the simulator runs a nil
// recovery exactly as it runs one that drops every aborted job.
func TestNilRecoveryEqualsDrop(t *testing.T) {
	a, b := run(t, nil), run(t, neverReissue{})
	if a.Summary() != b.Summary() {
		t.Error("nil recovery and a dropping recovery should behave identically")
	}
}

func TestPrimaryBackup(t *testing.T) {
	res := run(t, PrimaryBackup{})
	ts := res.Tasks["fs"]
	if ts.Aborted != 1 || ts.Recovered != 1 {
		t.Fatalf("aborted %d recovered %d, want 1/1", ts.Aborted, ts.Recovered)
	}
	if ts.Completed != 1 {
		t.Errorf("backup should complete, got %d completions", ts.Completed)
	}
	if ts.Missed != 0 {
		t.Error("backup had ample time; no miss expected")
	}
	// Backup restarts from scratch: 0.1 executed before the abort is
	// lost. Execution: [0.6,0.7) lost, block [0.7,0.8), fresh 0.5 runs
	// [0.8,1.0)=0.2 then [2.6,2.9)=0.3 → completion at 2.9.
	if want := timeu.FromUnits(2.9); ts.MaxResponse != want {
		t.Errorf("backup completion response = %s, want %s", ts.MaxResponse, want)
	}
}

func TestPrimaryBackupNoSecondRetry(t *testing.T) {
	// Two faults, each silencing the channel while work is in flight:
	// the backup's own abort must not spawn a third attempt.
	cfg, ts, _ := scenario()
	inj := faults.Script{
		{At: timeu.FromUnits(0.7), Core: 0, Duration: timeu.FromUnits(0.1)},
		{At: timeu.FromUnits(0.9), Core: 1, Duration: timeu.FromUnits(0.1)},
	}
	s, err := sim.New(cfg, ts, analysis.EDF)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Options{Horizon: timeu.FromUnits(10), Injector: inj, Recovery: PrimaryBackup{}})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Tasks["fs"]
	if st.Aborted != 2 || st.Recovered != 1 {
		t.Errorf("aborted %d recovered %d, want 2 aborts and only 1 recovery", st.Aborted, st.Recovered)
	}
}

func TestCheckpointPreservesProgress(t *testing.T) {
	res := run(t, &Checkpoint{})
	ts := res.Tasks["fs"]
	if ts.Recovered != 1 || ts.Completed != 1 {
		t.Fatalf("recovered %d completed %d, want 1/1", ts.Recovered, ts.Completed)
	}
	// Progress preserved: 0.1 done before the abort; 0.4 remain.
	// [0.8,1.0)=0.2, then 0.2 in [2.6,2.8) → completion at 2.8,
	// strictly earlier than the 2.9 of the from-scratch backup.
	if want := timeu.FromUnits(2.8); ts.MaxResponse != want {
		t.Errorf("checkpoint completion response = %s, want %s", ts.MaxResponse, want)
	}
}

func TestCheckpointOverhead(t *testing.T) {
	res := run(t, &Checkpoint{Overhead: timeu.FromUnits(0.1)})
	ts := res.Tasks["fs"]
	// Residual 0.4 + 0.1 restore = 0.5 → completes at 2.9 like a backup.
	if want := timeu.FromUnits(2.9); ts.MaxResponse != want {
		t.Errorf("with restore overhead, completion response = %s, want %s", ts.MaxResponse, want)
	}
}

func TestCheckpointMaxRetries(t *testing.T) {
	cfg, ts, _ := scenario()
	inj := faults.Script{
		{At: timeu.FromUnits(0.7), Core: 0, Duration: timeu.FromUnits(0.1)},
		{At: timeu.FromUnits(0.9), Core: 1, Duration: timeu.FromUnits(0.1)},
	}
	s, err := sim.New(cfg, ts, analysis.EDF)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Options{Horizon: timeu.FromUnits(10), Injector: inj, Recovery: &Checkpoint{MaxRetries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Tasks["fs"]
	if st.Recovered != 1 {
		t.Errorf("recovered %d, want exactly 1 (MaxRetries)", st.Recovered)
	}
	if st.Completed != 0 {
		t.Errorf("second abort exhausted retries; completed %d, want 0", st.Completed)
	}
}
