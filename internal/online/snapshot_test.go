package online

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/task"
)

// TestSnapshotReaderBitIdentity storms the pooled snapshot ring: one
// writer churns a single guest through admit+remove (so every
// published record is recycled many times over) while readers assert
// that each pinned snapshot is bit-for-bit one of the two legal states
// — the base set with its configuration, or base+guest with its
// configuration — never a torn mix. Run under -race this also proves
// the acquire/release ordering is data-race free.
func TestSnapshotReaderBitIdentity(t *testing.T) {
	m, _, _ := minimalManager(t)
	guest := task.Task{Name: "guest", C: 0.01, T: 10, Mode: task.NF, Channel: 0}

	baseCfg := m.Config()
	baseTasks := m.Tasks()
	if err := m.Admit(guest); err != nil {
		t.Fatal(err)
	}
	withCfg := m.Config()
	withTasks := m.Tasks()
	if err := m.Remove(guest.Name); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := m.Admit(guest); err != nil {
				t.Error(err)
				return
			}
			if err := m.Remove(guest.Name); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const readers = 4
	var torn atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				// One acquire must yield an internally consistent
				// (config, tasks, revoked) triple: the task set and the
				// configuration must belong to the same committed state.
				s := m.acquire()
				cfg := s.cfg
				tasks := append(task.Set(nil), s.live...)
				revoked := s.revoked
				s.release()
				switch {
				case cfg == baseCfg && slices.Equal(tasks, baseTasks) && revoked == 0:
				case cfg == withCfg && slices.Equal(tasks, withTasks) && revoked == 0:
				default:
					torn.Add(1)
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn snapshots: a read mixed states from different commits", n)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRingRecycles checks that steady-state churn does not
// allocate snapshot records: after warmup, the published record must
// come from the fixed ring.
func TestSnapshotRingRecycles(t *testing.T) {
	m, _, _ := minimalManager(t)
	guest := task.Task{Name: "guest", C: 0.01, T: 10, Mode: task.NF, Channel: 0}
	for i := 0; i < 2*snapshotRing; i++ { // warm the ring
		if err := m.Admit(guest); err != nil {
			t.Fatal(err)
		}
		if err := m.Remove(guest.Name); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[*snapshot]bool{}
	for i := 0; i < 8*snapshotRing; i++ {
		if err := m.Admit(guest); err != nil {
			t.Fatal(err)
		}
		seen[m.cur.Load()] = true
		if err := m.Remove(guest.Name); err != nil {
			t.Fatal(err)
		}
		seen[m.cur.Load()] = true
	}
	if len(seen) > snapshotRing {
		t.Fatalf("churn touched %d distinct records, want at most the ring's %d", len(seen), snapshotRing)
	}
}

// TestSnapshotZeroAllocCycle is the satellite headline as a plain
// test: a steady-state admit+remove cycle — with metrics installed —
// performs zero allocations.
func TestSnapshotZeroAllocCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts gate only the plain build")
	}
	m, _, _ := minimalManager(t)
	m.SetMetrics(NewMetrics(metrics.New()))
	// The guest's period lies on the FT channel's deadline grid, so the
	// admit patches the envelope incrementally — the alloc-free path the
	// manager bench measures. An off-grid guest would trigger the
	// (allocating) fallback recompile instead.
	guest := task.Task{Name: "guest", C: 0.05, T: 12, D: 12, Mode: task.FT, Channel: 0}
	for i := 0; i < 16; i++ { // warm pools, ring and map tombstones
		if err := m.Admit(guest); err != nil {
			t.Fatal(err)
		}
		if err := m.Remove(guest.Name); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.Admit(guest); err != nil {
			t.Fatal(err)
		}
		if err := m.Remove(guest.Name); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("admit+remove cycle allocates %.2f allocs/op with metrics enabled, want 0", allocs)
	}
}

// TestMultiChannelBatchZeroAlloc extends the zero-allocation contract
// to batches that span channels: one AdmitBatch of a guest on every
// channel and one RemoveBatch of them in reverse order, with metrics
// installed. The batch is grouped per channel in pooled scratch, so the
// cycle allocates nothing.
func TestMultiChannelBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts gate only the plain build")
	}
	m := maxFlexManager(t)
	m.SetMetrics(NewMetrics(metrics.New()))
	// Each guest clones the period and deadline of its channel's first
	// resident, so every patch stays on the channel's deadline grid.
	var batch []task.Task
	for _, r := range m.Tasks() {
		if !slices.ContainsFunc(batch, func(g task.Task) bool { return g.Mode == r.Mode && g.Channel == r.Channel }) {
			batch = append(batch, task.Task{Name: "g-" + r.Name, C: r.C / 100, T: r.T, D: r.D, Mode: r.Mode, Channel: r.Channel})
		}
	}
	names := make([]string, len(batch))
	for i, g := range batch {
		names[len(batch)-1-i] = g.Name
	}
	cycle := func() {
		if err := m.AdmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := m.RemoveBatch(names); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm pools, ring and map tombstones
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 0 {
		t.Fatalf("%d-channel AdmitBatch+RemoveBatch cycle allocates %.2f allocs/op with metrics enabled, want 0", len(batch), allocs)
	}
}

// TestMetricsCountsCycle checks the instrument arithmetic over a mixed
// workload against hand-kept tallies.
func TestMetricsCountsCycle(t *testing.T) {
	m, _, _ := minimalManager(t)
	reg := metrics.New()
	m.SetMetrics(NewMetrics(reg))
	guest := func(i int) task.Task {
		return task.Task{Name: fmt.Sprintf("g%d", i), C: 0.005, T: 10, Mode: task.NF, Channel: i % 4}
	}
	if err := m.AdmitBatch([]task.Task{guest(0), guest(1)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(guest(0)); err == nil { // name collision
		t.Fatal("duplicate admit must fail")
	}
	if err := m.RemoveBatch([]string{"g0", "g1"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("gone"); err == nil {
		t.Fatal("removing an unknown name must fail")
	}
	s := reg.Snapshot()
	for name, want := range map[string]uint64{
		"online.admit.batches":   1,
		"online.admit.rejected":  1,
		"online.remove.batches":  1,
		"online.remove.rejected": 1,
		"online.tasks.admitted":  2,
		"online.tasks.removed":   2,
	} {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := s.Gauges["online.live_tasks"]; got != float64(len(m.Tasks())) {
		t.Errorf("live_tasks gauge = %v, want %d", got, len(m.Tasks()))
	}
	if s.Histograms["online.commit_ns"].Count != 2 {
		t.Errorf("commit_ns count = %d, want 2 (the two successful commits)", s.Histograms["online.commit_ns"].Count)
	}
}

// TestBackoffJitterBreaksLockstep checks the satellite-2 fix: two
// Backoff loops with different random streams produce different delay
// schedules (no lockstep re-collision), each delay staying within the
// jitter window [step/2, step).
func TestBackoffJitterBreaksLockstep(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		var ds []time.Duration
		b := Backoff{
			Attempts: 6,
			Base:     time.Millisecond,
			Max:      time.Second,
			Sleep:    func(d time.Duration) { ds = append(ds, d) },
			Rand:     rng.Float64,
		}
		busy := fmt.Errorf("%w: contended", ErrBusy)
		if err := b.Retry(func() error { return busy }); !errors.Is(err, ErrBusy) {
			t.Fatalf("exhausted retry must return the busy error, got %v", err)
		}
		return ds
	}
	d1, d2 := schedule(1), schedule(2)
	if slices.Equal(d1, d2) {
		t.Fatalf("two contenders produced identical delay schedules %v: jitter is not applied", d1)
	}
	step := time.Millisecond
	for i, d := range d1 {
		if d < step/2 || d >= step {
			t.Errorf("delay %d = %v outside the jitter window [%v, %v)", i, d, step/2, step)
		}
		step *= 2
	}
}

// TestBackoffContendingWritersConverge is the regression test for the
// lockstep livelock: two writers contending on one slot, each holding
// it long enough that simultaneous first attempts collide, must both
// succeed within the attempt budget once their retry schedules are
// decorrelated by jitter.
func TestBackoffContendingWritersConverge(t *testing.T) {
	var slot atomic.Int32
	busy := fmt.Errorf("%w: slot held", ErrBusy)
	var start sync.WaitGroup
	start.Add(1)
	worker := func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		b := Backoff{Attempts: 16, Base: 200 * time.Microsecond, Max: 50 * time.Millisecond, Rand: rng.Float64}
		start.Wait() // align the first attempts so they collide
		return b.Retry(func() error {
			if !slot.CompareAndSwap(0, 1) {
				return busy
			}
			time.Sleep(300 * time.Microsecond) // hold the slot: overlapping attempts see it busy
			slot.Store(0)
			return nil
		})
	}
	errs := make(chan error, 2)
	go func() { errs <- worker(11) }()
	go func() { errs <- worker(22) }()
	start.Done()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("contending writer never converged: %v", err)
		}
	}
}
