package online

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/region"
	"repro/internal/task"
	"repro/internal/trace"
)

// guestCost measures how much slack a set of guests costs: the caller
// admits them and we report the slack drop, which is exactly the
// revocation needed to force all of them (and nothing else) out again.
func guestCost(t *testing.T, m *Manager, guests []task.Task) float64 {
	t.Helper()
	before := m.Slack()
	if err := m.AdmitBatch(guests); err != nil {
		t.Fatal(err)
	}
	cost := before - m.Slack()
	if cost <= core.SlotFitTol {
		t.Fatalf("guests cost no slack (%.2g); they must load the binding channel", cost)
	}
	return cost
}

// guestsLast ranks the named guests by the given values and every
// resident far above them, so evictions hit guests first.
func guestsLast(values map[string]float64) Policy {
	return Policy{Value: func(tk task.Task) float64 {
		if v, ok := values[tk.Name]; ok {
			return v
		}
		return 1e9
	}}
}

// TestRevokeEvictsLowestValueFirst revokes exactly the guests' slack
// cost: both must be evicted, lowest value first, and no resident with
// them.
func TestRevokeEvictsLowestValueFirst(t *testing.T) {
	m, _, pr := minimalManager(t)
	cost := guestCost(t, m, []task.Task{
		{Name: "cheap", C: 0.3, T: 10, Mode: task.NF, Channel: 3},
		{Name: "dear", C: 0.3, T: 10, Mode: task.NF, Channel: 3},
	})
	pol := guestsLast(map[string]float64{"cheap": 1, "dear": 2})
	rep, err := m.Revoke(m.Slack()+cost, pol)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Evicted.Names(); len(got) != 2 || got[0] != "cheap" || got[1] != "dear" {
		t.Fatalf("evicted %v, want [cheap dear] (lowest value first, no residents)", got)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("degraded Verify: %v", err)
	}
	configOracle(t, m, pr, "degraded")
	if got := len(m.Parked()); got != 2 {
		t.Errorf("parked %d tasks, want 2", got)
	}
	// Parked tasks keep their names claimed.
	var rej *Rejection
	if err := m.Admit(task.Task{Name: "cheap", C: 0.01, T: 10, Mode: task.NF, Channel: 0}); !errors.As(err, &rej) {
		t.Fatalf("admitting a parked name should return a typed rejection, got %v", err)
	} else if rej.Verdicts[0].Code != VerdictNameTaken {
		t.Errorf("parked-name collision verdict %v, want name-taken", rej.Verdicts[0].Code)
	}
}

// TestRevokeRestoreRoundTrip checks a full capacity loss and recovery:
// the degraded and restored states both match the from-scratch oracle,
// the restored slots return to the pre-fault values, and the event sink
// sees the whole story.
func TestRevokeRestoreRoundTrip(t *testing.T) {
	m, _, pr := minimalManager(t)
	guest := task.Task{Name: "guest", C: 0.06, T: 10, Mode: task.NF, Channel: 3}
	if err := m.Admit(guest); err != nil {
		t.Fatal(err)
	}
	before := m.Config()
	var events []Event
	m.SetEventSink(func(ev Event) { events = append(events, ev) })

	share := m.Slack() + 0.05 // beyond the slack: forces evictions
	rep, err := m.Revoke(share, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Revoked != share {
		t.Errorf("Revoked %.6f, want %.6f", rep.Revoked, share)
	}
	if len(rep.Evicted) == 0 {
		t.Fatal("revoking beyond the slack must evict")
	}
	if m.Slack()-m.Revoked() < -core.SlotFitTol {
		t.Errorf("degraded state overcommitted: slack %.6f, revoked %.6f", m.Slack(), m.Revoked())
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("degraded Verify: %v", err)
	}
	configOracle(t, m, pr, "degraded")

	rep, err = m.Restore(share, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Revoked != 0 {
		t.Errorf("revoked %.6f after full restore, want 0", rep.Revoked)
	}
	if len(rep.Parked) != 0 {
		t.Errorf("tasks still parked after full restore: %v", rep.Parked.Names())
	}
	// Readmission can reorder tasks within a channel, so slots may move
	// by an ulp; they must still agree with the pre-fault design to
	// within the fit tolerance, and exactly with the live-order oracle.
	got := m.Config()
	if got.P != before.P {
		t.Fatalf("period changed across revoke/restore: %.6f vs %.6f", got.P, before.P)
	}
	for _, mode := range task.Modes() {
		if d := math.Abs(got.Q.Of(mode) - before.Q.Of(mode)); d > core.SlotFitTol {
			t.Errorf("mode %s slot %.9f differs from pre-fault %.9f", mode, got.Q.Of(mode), before.Q.Of(mode))
		}
	}
	configOracle(t, m, pr, "restored")
	if err := m.Verify(); err != nil {
		t.Fatalf("restored Verify: %v", err)
	}
	if got := len(m.Tasks()); got != len(task.PaperTaskSet())+1 {
		t.Errorf("live %d tasks after restore, want all residents + guest", got)
	}

	kinds := map[trace.Kind]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	for _, k := range []trace.Kind{trace.Degraded, trace.Evicted, trace.Restored, trace.Readmitted} {
		if kinds[k] == 0 {
			t.Errorf("event sink never saw %s: %+v", k, events)
		}
	}
	m.SetEventSink(nil)
}

// TestRestoreReadmitsByValue parks two guests of unequal value and
// restores the full capacity: both return, the valuable one first.
func TestRestoreReadmitsByValue(t *testing.T) {
	m, _, _ := minimalManager(t)
	cost := guestCost(t, m, []task.Task{
		{Name: "guest-a", C: 0.25, T: 10, Mode: task.NF, Channel: 3},
		{Name: "guest-b", C: 0.25, T: 10, Mode: task.NF, Channel: 3},
	})
	pol := guestsLast(map[string]float64{"guest-a": 1, "guest-b": 2})
	if _, err := m.Revoke(m.Slack()+cost, pol); err != nil {
		t.Fatal(err)
	}
	if parked := m.Parked(); len(parked) != 2 {
		t.Fatalf("parked %v, want both guests", parked.Names())
	}
	rep, err := m.Restore(m.Revoked(), pol)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Readmitted.Names(); len(got) != 2 || got[0] != "guest-b" || got[1] != "guest-a" {
		t.Fatalf("readmitted %v, want [guest-b guest-a] (highest value first)", got)
	}
	if got := len(m.Parked()); got != 0 {
		t.Errorf("%d tasks still parked after full restore", got)
	}
	if got := len(m.Tasks()); got != len(task.PaperTaskSet())+2 {
		t.Errorf("live %d tasks, want residents + both guests", got)
	}
}

// TestRevokeRejectsImpossible checks that a revocation no eviction can
// satisfy — capacity below the mode overheads — is rejected atomically,
// channel profiles included: they must still hold every live task.
func TestRevokeRejectsImpossible(t *testing.T) {
	m, _, _ := minimalManager(t)
	before := m.Config()
	liveBefore := len(m.Tasks())
	_, err := m.Revoke(before.P, Policy{}) // leaves zero capacity
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("impossible revocation should be rejected, got %v", err)
	}
	if got := m.Config(); got != before {
		t.Error("rejected revocation changed the configuration")
	}
	if got := len(m.Tasks()); got != liveBefore {
		t.Error("rejected revocation changed the live set")
	}
	if m.Revoked() != 0 {
		t.Error("rejected revocation left capacity revoked")
	}
	if got := len(m.Parked()); got != 0 {
		t.Error("rejected revocation parked tasks")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify after rejected revocation: %v", err)
	}
	checkProfilesFresh(t, m, "after rejected revocation")
}

// TestDegradeParameterValidation covers the argument guards.
func TestDegradeParameterValidation(t *testing.T) {
	m, _, _ := minimalManager(t)
	if _, err := m.Revoke(0, Policy{}); !errors.Is(err, ErrRejected) {
		t.Errorf("Revoke(0): %v", err)
	}
	if _, err := m.Revoke(-1, Policy{}); !errors.Is(err, ErrRejected) {
		t.Errorf("Revoke(-1): %v", err)
	}
	if _, err := m.Restore(0.5, Policy{}); !errors.Is(err, ErrRejected) {
		t.Errorf("Restore with nothing revoked: %v", err)
	}
	if _, err := m.Restore(-1, Policy{}); !errors.Is(err, ErrRejected) {
		t.Errorf("Restore(-1): %v", err)
	}
}

// TestRemoveParkedTask checks that a parked task can depart: its name
// frees without any profile work (its demand left at eviction), and the
// parked set shrinks.
func TestRemoveParkedTask(t *testing.T) {
	m, _, pr := minimalManager(t)
	cost := guestCost(t, m, []task.Task{
		{Name: "guest", C: 0.3, T: 10, Mode: task.NF, Channel: 3},
	})
	if _, err := m.Revoke(m.Slack()+cost, guestsLast(map[string]float64{"guest": 1})); err != nil {
		t.Fatal(err)
	}
	if parked := m.Parked(); len(parked) != 1 || parked[0].Name != "guest" {
		t.Fatalf("parked %v, want exactly the guest", parked.Names())
	}
	if err := m.Remove("guest"); err != nil {
		t.Fatalf("removing a parked task: %v", err)
	}
	if got := len(m.Parked()); got != 0 {
		t.Errorf("parked set still has %d tasks", got)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify after parked removal: %v", err)
	}
	configOracle(t, m, pr, "after parked removal")
	// The name is free again: a re-admission may still fail on the
	// revoked capacity, but never on a name collision.
	err := m.Admit(task.Task{Name: "guest", C: 0.01, T: 10, Mode: task.NF, Channel: 0})
	var rej *Rejection
	if errors.As(err, &rej) {
		for _, v := range rej.Verdicts {
			if v.Code == VerdictNameTaken || v.Code == VerdictBusy {
				t.Fatalf("name still claimed after parked removal: %v", err)
			}
		}
	} else if err != nil {
		t.Fatalf("unexpected error shape: %v", err)
	}
}

// TestRemoveErrorsWrapSentinels pins the satellite fix: the remove path
// wraps ErrRejected uniformly (it used to return bare fmt.Errorf
// strings), and in-flight conflicts additionally wrap ErrBusy.
func TestRemoveErrorsWrapSentinels(t *testing.T) {
	m, _, _ := minimalManager(t)
	for label, names := range map[string][]string{
		"unknown name": {"nobody"},
		"empty name":   {""},
		"duplicate":    {"tau1", "tau1"},
	} {
		if err := m.RemoveBatch(names); !errors.Is(err, ErrRejected) {
			t.Errorf("%s: want ErrRejected, got %v", label, err)
		} else if errors.Is(err, ErrBusy) {
			t.Errorf("%s: structural failure must not be retryable", label)
		}
	}
	// An in-flight conflict: mark a resident pending by hand and check
	// both sentinels match, then the Backoff helper retries through it.
	m.nameMu.Lock()
	m.names["tau1"].pending = true
	m.nameMu.Unlock()
	err := m.Remove("tau1")
	if !errors.Is(err, ErrRejected) || !errors.Is(err, ErrBusy) {
		t.Fatalf("pending conflict should wrap ErrRejected and ErrBusy, got %v", err)
	}
	tries := 0
	var slept []time.Duration
	err = Backoff{
		Attempts: 3,
		Sleep:    func(d time.Duration) { slept = append(slept, d) },
		Rand:     func() float64 { return 0 }, // pin the jitter for a deterministic schedule
	}.Retry(func() error {
		tries++
		if tries == 3 {
			m.nameMu.Lock()
			m.names["tau1"].pending = false
			m.nameMu.Unlock()
		}
		return m.Remove("tau1")
	})
	if err != nil {
		t.Fatalf("Backoff.Retry should succeed once the conflict clears: %v", err)
	}
	if tries != 3 {
		t.Errorf("retries %d, want 3 (busy, busy, conflict cleared)", tries)
	}
	if len(slept) != 2 || slept[1] != 2*slept[0] {
		t.Errorf("backoff delays %v, want two doubling waits", slept)
	}
	// The resident is gone now; a non-transient failure aborts the loop
	// without retries.
	tries = 0
	err = Backoff{Sleep: func(time.Duration) {}}.Retry(func() error { tries++; return m.Remove("tau1") })
	if !errors.Is(err, ErrRejected) || errors.Is(err, ErrBusy) {
		t.Fatalf("removing a removed task: %v", err)
	}
	if tries != 1 {
		t.Errorf("non-transient failure retried %d times, want 1 attempt", tries)
	}
}

// TestDegradeRejectsNonFiniteCapacity: a NaN or infinite capacity is
// rejected before anything is locked or patched. A NaN Restore used to
// publish Revoked() = NaN, after which every admission was rejected
// ("at most NaN fits") while Verify still passed.
func TestDegradeRejectsNonFiniteCapacity(t *testing.T) {
	m, _, pr := minimalManager(t)
	live, parked := m.Tasks(), m.Parked()
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := m.Revoke(c, Policy{}); !errors.Is(err, ErrRejected) {
			t.Errorf("Revoke(%g) = %v, want ErrRejected", c, err)
		}
		if _, err := m.Restore(c, Policy{}); !errors.Is(err, ErrRejected) {
			t.Errorf("Restore(%g) = %v, want ErrRejected", c, err)
		}
		if got := m.Revoked(); got != 0 {
			t.Fatalf("after capacity %g: Revoked() = %g, want 0", c, got)
		}
		if !slices.Equal(m.Tasks(), live) || !slices.Equal(m.Parked(), parked) {
			t.Fatalf("after capacity %g: the live or parked set changed", c)
		}
	}
	if err := m.Admit(task.Task{Name: "guest", C: 0.01, T: 12, Mode: task.FT, Channel: 0}); err != nil {
		t.Fatalf("admission after the rejected capacities: %v", err)
	}
	configOracle(t, m, pr, "after the rejected capacities")
	checkProfilesFresh(t, m, "after the rejected capacities")
	// Verify fails a non-finite revoked capacity however it got there.
	m.cur.Load().revoked = math.NaN()
	if err := m.Verify(); err == nil {
		t.Fatal("Verify passed a NaN revoked capacity")
	}
}

// TestRevokeKeepsAnonymousTasks: a parked task is held by its name, so
// Revoke never evicts an anonymous task of the initial set, however
// low its value. It used to evict one and then dereference the
// registry entry the task does not have.
func TestRevokeKeepsAnonymousTasks(t *testing.T) {
	pr := core.Problem{Tasks: task.PaperTaskSet(), Alg: analysis.EDF, O: core.UniformOverheads(task.PaperOverheadTotal)}
	pr.Tasks[4].Name = "" // tau5, alone on NF/3
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := design.Solve(pr, design.MaxFlexibility, region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cp.ConfigFor(sol.Config.P)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerFromCompiled(cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{Value: func(tk task.Task) float64 {
		if tk.Name == "" {
			return 0
		}
		return 1
	}}
	// Evicting every named task still leaves the anonymous one's slot:
	// the revocation is rejected and nothing changes.
	live := m.Tasks()
	if _, err := m.Revoke(cfg.P-pr.O.Total()-core.SlotFitTol, pol); !errors.Is(err, ErrRejected) {
		t.Fatalf("a revocation only the anonymous task's eviction could meet: %v, want ErrRejected", err)
	}
	if !slices.Equal(m.Tasks(), live) || len(m.Parked()) != 0 || m.Revoked() != 0 || m.Config() != cfg {
		t.Fatal("the rejected revocation changed the published state")
	}
	checkProfilesFresh(t, m, "after the rejected revocation")
	rep, err := m.Revoke(m.Slack()+0.05, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Evicted) == 0 {
		t.Fatal("the revocation evicted nothing")
	}
	for _, tk := range rep.Evicted {
		if tk.Name == "" {
			t.Fatalf("evicted an anonymous task: %+v", tk)
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	configOracle(t, m, pr, "after the eviction")
	if _, err := m.Restore(m.Revoked(), pol); err != nil {
		t.Fatal(err)
	}
	if len(m.Parked()) != 0 || len(m.Tasks()) != len(live) {
		t.Fatalf("restore left %d parked and %d live, want 0 and %d", len(m.Parked()), len(m.Tasks()), len(live))
	}
	configOracle(t, m, pr, "after the restore")
	checkProfilesFresh(t, m, "after the restore")
}
