package online

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/region"
	"repro/internal/task"
)

// checkProfilesFresh asserts every cached channel profile is
// bit-identical to a fresh Compile of the manager's live tasks.
func checkProfilesFresh(t *testing.T, m *Manager, stage string) {
	t.Helper()
	tasks := m.Tasks()
	for _, mode := range task.Modes() {
		for ch, sub := range tasks.Channels(mode) {
			fresh, err := analysis.Compile(sub, m.alg)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if !m.channels[mode][ch].prof.Equal(fresh) {
				t.Fatalf("%s: mode %s channel %d: cached profile not bit-identical to fresh Compile",
					stage, mode, ch)
			}
		}
	}
}

// TestAdmitBatchMatchesSequential drives the same guests through
// AdmitBatch/RemoveBatch and through sequential Admit/Remove on a
// sibling manager: the resulting configurations, slack and profiles
// must be identical, and the batch must round-trip to the initial
// state.
func TestAdmitBatchMatchesSequential(t *testing.T) {
	batchMgr := maxFlexManager(t)
	seqMgr := maxFlexManager(t)
	slack0 := batchMgr.Slack()
	guests := []task.Task{
		{Name: "g1", C: 0.1, T: 10, Mode: task.NF, Channel: 3},
		{Name: "g2", C: 0.05, T: 12, Mode: task.NF, Channel: 3},
		{Name: "g3", C: 0.08, T: 8, Mode: task.FS, Channel: 1},
		{Name: "g4", C: 0.1, T: 10, Mode: task.NF, Channel: 0},
	}
	if err := batchMgr.AdmitBatch(guests); err != nil {
		t.Fatalf("AdmitBatch: %v", err)
	}
	for _, g := range guests {
		if err := seqMgr.Admit(g); err != nil {
			t.Fatalf("sequential Admit(%s): %v", g.Name, err)
		}
	}
	if got, want := batchMgr.Config(), seqMgr.Config(); got != want {
		t.Fatalf("batched config %+v differs from sequential %+v", got, want)
	}
	if got, want := len(batchMgr.Tasks()), len(seqMgr.Tasks()); got != want {
		t.Fatalf("batched task count %d, sequential %d", got, want)
	}
	checkProfilesFresh(t, batchMgr, "after AdmitBatch")
	if err := batchMgr.Verify(); err != nil {
		t.Fatalf("batched configuration fails the theorem oracle: %v", err)
	}
	names := []string{"g1", "g2", "g3", "g4"}
	if err := batchMgr.RemoveBatch(names); err != nil {
		t.Fatalf("RemoveBatch: %v", err)
	}
	if math.Abs(batchMgr.Slack()-slack0) > 1e-9 {
		t.Errorf("slack not restored after batch round trip: %.6f vs %.6f", batchMgr.Slack(), slack0)
	}
	checkProfilesFresh(t, batchMgr, "after RemoveBatch")
}

// TestAdmitBatchAllOrNothing pins the batch contract: one inadmissible
// member (too heavy, duplicate name, unnamed, invalid) rejects the
// whole batch and leaves configuration, task set and profiles
// untouched.
func TestAdmitBatchAllOrNothing(t *testing.T) {
	m := maxFlexManager(t)
	cfg0 := m.Config()
	n0 := len(m.Tasks())
	fine := task.Task{Name: "fine", C: 0.05, T: 12, Mode: task.NF, Channel: 0}
	cases := map[string][]task.Task{
		"too heavy":      {fine, {Name: "whale", C: 5, T: 10, Mode: task.FT, Channel: 0}},
		"duplicate name": {fine, {Name: "tau1", C: 0.05, T: 12, Mode: task.NF, Channel: 1}},
		"dup in batch":   {fine, {Name: "fine", C: 0.05, T: 12, Mode: task.NF, Channel: 1}},
		"unnamed member": {fine, {C: 0.05, T: 12, Mode: task.NF, Channel: 1}},
		"invalid member": {fine, {Name: "bad", C: -1, T: 12, Mode: task.NF, Channel: 1}},
	}
	for label, batch := range cases {
		if err := m.AdmitBatch(batch); !errors.Is(err, ErrRejected) {
			t.Errorf("%s: want ErrRejected, got %v", label, err)
		}
		if m.Config() != cfg0 {
			t.Fatalf("%s: rejected batch changed the configuration", label)
		}
		if len(m.Tasks()) != n0 {
			t.Fatalf("%s: rejected batch changed the task set", label)
		}
		// The batch's fine member must not stay reserved: it is
		// admissible on its own afterwards.
		if err := m.Admit(fine); err != nil {
			t.Fatalf("%s: name %q still reserved after rejected batch: %v", label, fine.Name, err)
		}
		if err := m.Remove(fine.Name); err != nil {
			t.Fatal(err)
		}
	}
	checkProfilesFresh(t, m, "after rejected batches")
	if err := m.AdmitBatch(nil); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
	if err := m.RemoveBatch(nil); err != nil {
		t.Errorf("empty removal should be a no-op, got %v", err)
	}
}

// TestRemoveBatchAllOrNothing: one unknown (or repeated) name rejects
// the whole removal.
func TestRemoveBatchAllOrNothing(t *testing.T) {
	m := maxFlexManager(t)
	n0 := len(m.Tasks())
	if err := m.RemoveBatch([]string{"tau9", "ghost"}); err == nil {
		t.Error("batch with unknown name should fail")
	}
	if err := m.RemoveBatch([]string{"tau9", "tau9"}); err == nil {
		t.Error("batch listing a name twice should fail")
	}
	if err := m.RemoveBatch([]string{"tau9", ""}); err == nil {
		t.Error("batch with empty name should fail")
	}
	if len(m.Tasks()) != n0 {
		t.Fatal("failed removals changed the task set")
	}
	// tau9 must not stay marked pending after the failures.
	if err := m.Remove("tau9"); err != nil {
		t.Fatalf("tau9 still reserved after rejected batches: %v", err)
	}
}

// TestBatchSpanningChannels admits one batch that touches four
// different channels across all three modes, then removes it in one
// call — exercising the multi-channel lock path.
func TestBatchSpanningChannels(t *testing.T) {
	m := maxFlexManager(t)
	batch := []task.Task{
		{Name: "s1", C: 0.1, T: 12, Mode: task.FT, Channel: 0},
		{Name: "s2", C: 0.05, T: 10, Mode: task.FS, Channel: 0},
		{Name: "s3", C: 0.05, T: 10, Mode: task.FS, Channel: 1},
		{Name: "s4", C: 0.1, T: 12, Mode: task.NF, Channel: 2},
	}
	if err := m.AdmitBatch(batch); err != nil {
		t.Fatalf("cross-channel batch rejected: %v", err)
	}
	checkProfilesFresh(t, m, "after cross-channel admit")
	if err := m.Verify(); err != nil {
		t.Fatalf("theorem oracle: %v", err)
	}
	if err := m.RemoveBatch([]string{"s1", "s2", "s3", "s4"}); err != nil {
		t.Fatal(err)
	}
	checkProfilesFresh(t, m, "after cross-channel remove")
}

// TestManagerLeavesCompiledProblemUntouched is the regression test for
// the profile-aliasing fix: a manager built from an existing
// CompiledProblem must copy what it mutates, so churning the manager —
// or a sibling manager built from the same compilation — leaves the
// source compiled problem bit-identical to a fresh compile, and the
// siblings independent of each other.
func TestManagerLeavesCompiledProblemUntouched(t *testing.T) {
	pr := core.Problem{
		Tasks: task.PaperTaskSet(),
		Alg:   analysis.EDF,
		O:     core.UniformOverheads(task.PaperOverheadTotal),
	}
	sol, err := design.Solve(pr, design.MaxFlexibility, region.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManagerFromCompiled(cp, sol.Config)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := NewManagerFromCompiled(cp, sol.Config)
	if err != nil {
		t.Fatal(err)
	}
	siblingCfg := sibling.Config()
	// Churn the first manager: admissions, removals of paper tasks,
	// re-admissions.
	if err := m.AdmitBatch([]task.Task{
		{Name: "a1", C: 0.1, T: 10, Mode: task.NF, Channel: 3},
		{Name: "a2", C: 0.05, T: 12, Mode: task.FS, Channel: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("tau9"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("a1"); err != nil {
		t.Fatal(err)
	}
	// The source compiled problem still answers like a fresh compile of
	// the original problem, channel by channel, bit for bit.
	fresh, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range task.Modes() {
		freshProfs := fresh.ChannelProfiles(mode)
		for ch, prof := range cp.ChannelProfiles(mode) {
			if !prof.Equal(freshProfs[ch]) {
				t.Fatalf("mode %s channel %d: manager churn corrupted the source CompiledProblem", mode, ch)
			}
		}
	}
	if got, want := len(cp.Problem().Tasks), len(pr.Tasks); got != want {
		t.Fatalf("source problem task count changed: %d, want %d", got, want)
	}
	// The sibling manager is unaffected: same config, and its own
	// admission of the name the first manager removed still works from
	// the original task set.
	if sibling.Config() != siblingCfg {
		t.Fatal("churning one manager changed its sibling's configuration")
	}
	if _, found := sibling.Tasks().Find("tau9"); !found {
		t.Fatal("removal in one manager leaked into its sibling")
	}
	checkProfilesFresh(t, sibling, "sibling after sibling churn")
}

// TestRowTrimPreservesState churns offGridGuest beside c1 on NF/3,
// whose period stretches tau5's hyperperiod so that channel recompiles
// on every patch, in two-channel batches each drained by one
// RemoveBatch: both rows stay below analysis.MaxMemRatio, the patch
// counters only grow, and every cycle leaves the configuration, the
// profiles (against a fresh Compile and Check) and the theorem oracle
// as they were — and the channels still admit.
func TestRowTrimPreservesState(t *testing.T) {
	m := maxFlexManager(t)
	cfg0 := m.Config()
	batch := task.Set{offGridGuest, {Name: "c1", C: 0.1, T: 10, Mode: task.NF, Channel: 3}}
	for i := 0; i < 6; i++ {
		if err := m.AdmitBatch(batch); err != nil {
			t.Fatalf("cycle %d: AdmitBatch: %v", i, err)
		}
		if err := m.RemoveBatch(batch.Names()); err != nil {
			t.Fatalf("cycle %d: RemoveBatch: %v", i, err)
		}
		for _, ch := range []int{0, 3} {
			if r := m.channels[task.NF][ch].prof.MemStats().Ratio(); r >= analysis.MaxMemRatio {
				t.Fatalf("cycle %d: NF/%d memory ratio %g, want below %d", i, ch, r, analysis.MaxMemRatio)
			}
		}
		if m.Config() != cfg0 {
			t.Fatalf("cycle %d: configuration %+v, want %+v", i, m.Config(), cfg0)
		}
		checkProfilesFresh(t, m, fmt.Sprintf("cycle %d", i))
		if err := m.CheckProfiles(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("cycle %d: Verify: %v", i, err)
		}
	}
	if got := m.channels[task.NF][3].patches; got != 12 {
		t.Fatalf("NF/3 patch counter %d, want 12", got)
	}
	if err := m.Admit(batch[1]); err != nil {
		t.Fatalf("admission after the churn: %v", err)
	}
}

// TestShardedStorm is the concurrency stress test of the sharded
// manager: parallel AdmitBatch/RemoveBatch writers on independent
// channels (plus one writer whose batches span two channels), interleaved
// with lock-free Config/Slack/Tasks readers, theorem-level Verify calls
// and CheckProfiles audits, all under
// the race detector in CI. After the storm every guest has departed, so
// the surviving set is the paper set — the live configuration must pass
// Verify and equal the from-scratch solve of that set at the fixed
// period (ConfigFor, which is exactly what a design solve builds at a
// given P).
func TestShardedStorm(t *testing.T) {
	m := maxFlexManager(t)
	pr := core.Problem{
		Tasks: task.PaperTaskSet(),
		Alg:   analysis.EDF,
		O:     core.UniformOverheads(task.PaperOverheadTotal),
	}
	p := m.Config().P
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	// One writer per channel of every mode, each churning its own
	// uniquely named guests in batches of two.
	for _, mode := range task.Modes() {
		for ch := 0; ch < mode.Channels(); ch++ {
			writers.Add(1)
			go func(mode task.Mode, ch int) {
				defer writers.Done()
				batch := []task.Task{
					{Name: fmt.Sprintf("w-%s%d-a", mode, ch), C: 0.03, T: 10, Mode: mode, Channel: ch},
					{Name: fmt.Sprintf("w-%s%d-b", mode, ch), C: 0.02, T: 12, Mode: mode, Channel: ch},
				}
				names := []string{batch[0].Name, batch[1].Name}
				for i := 0; i < iters; i++ {
					err := m.AdmitBatch(batch)
					if err == nil {
						if err := m.RemoveBatch(names); err != nil {
							t.Errorf("writer %s/%d: remove: %v", mode, ch, err)
							return
						}
					} else if !errors.Is(err, ErrRejected) {
						t.Errorf("writer %s/%d: unexpected error class: %v", mode, ch, err)
						return
					}
				}
			}(mode, ch)
		}
	}
	// A writer whose batches span two channels of two different modes,
	// exercising the multi-channel lock ordering against the
	// single-channel writers.
	writers.Add(1)
	go func() {
		defer writers.Done()
		batch := []task.Task{
			{Name: "x-span-nf", C: 0.02, T: 10, Mode: task.NF, Channel: 1},
			{Name: "x-span-fs", C: 0.02, T: 12, Mode: task.FS, Channel: 0},
		}
		names := []string{batch[0].Name, batch[1].Name}
		for i := 0; i < iters; i++ {
			err := m.AdmitBatch(batch)
			if err == nil {
				if err := m.RemoveBatch(names); err != nil {
					t.Errorf("spanning writer: remove: %v", err)
					return
				}
			} else if !errors.Is(err, ErrRejected) {
				t.Errorf("spanning writer: unexpected error class: %v", err)
				return
			}
		}
	}()
	// Readers: the lock-free accessors plus the theorem-level oracle.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cfg := m.Config()
				if cfg.P != p {
					t.Error("period changed at run time")
					return
				}
				if m.Slack() < -1e-9 {
					t.Errorf("negative slack %g", m.Slack())
					return
				}
				if len(m.Tasks()) < len(pr.Tasks) {
					t.Error("live set lost a resident task")
					return
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Verify(); err != nil {
				t.Errorf("mid-storm Verify: %v", err)
				return
			}
		}
	}()
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.CheckProfiles(); err != nil {
				t.Errorf("mid-storm CheckProfiles: %v", err)
				return
			}
		}
	}()

	writers.Wait()
	close(stop)
	readers.Wait()

	if err := m.Verify(); err != nil {
		t.Fatalf("post-storm configuration fails the theorem oracle: %v", err)
	}
	if got, want := len(m.Tasks()), len(pr.Tasks); got != want {
		t.Fatalf("post-storm task count %d, want %d (all guests removed)", got, want)
	}
	checkProfilesFresh(t, m, "post-storm")
	// The surviving set is the paper set and every mode was reshaped
	// during the storm, so the live configuration must equal the
	// from-scratch solve at the fixed period.
	cp, err := pr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := cp.ConfigFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Config(); got != want {
		t.Fatalf("post-storm config %+v differs from from-scratch solve %+v", got, want)
	}
}
