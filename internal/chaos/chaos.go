// Package chaos is the robustness proving ground for the online
// admission manager: it drives a live Manager with concurrent
// admit/remove/partial-admit storms interleaved with capacity
// revocations, restores and consolidation sweeps, and after every
// quiescent point re-derives the whole system state from scratch and
// compares bit-for-bit.
//
// The checks after each round:
//
//   - Verify passes: the live configuration carries the paper's
//     theorem-level guarantees for the live set on the unrevoked
//     capacity.
//
//   - Conservation: every task ever admitted and not yet removed is
//     present exactly once, either live or parked — shed, eviction and
//     readmission cycles lose nothing and duplicate nothing.
//
//   - Bit-identity: the live configuration equals the from-scratch
//     ConfigFor solve of the live set at the fixed period — the
//     incremental patch machinery agrees with a cold compile to the
//     last bit.
//
//   - Capacity: the slots fit the period minus the currently revoked
//     capacity.
//
//   - Profile audit: every channel's incremental profile passes the
//     full analysis.Profile.Check — a bitwise comparison of its
//     retained stream, owner counts, demand row and pruned pairs
//     against a fresh compile.
//
// Runs are seeded and deterministic in their op sequence (the
// interleaving is whatever the scheduler does — that is the point);
// the harness is reusable from tests (go test -race gates it in CI)
// and from cmd/ftsim -chaos.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/online"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/trace"
)

// Options tune a chaos run. The zero value gives the CI-sized storm:
// 8 rounds × one writer per channel × 20 ops ≈ 1.1k admission
// operations plus the degrade traffic.
type Options struct {
	// Seed makes the op sequence reproducible.
	Seed int64
	// Rounds is the number of storm rounds, each ending in a quiescent
	// full-state check. 0 means 8.
	Rounds int
	// Writers is the number of concurrent admission writers. 0 means
	// one per channel of every mode (7 on the paper platform).
	Writers int
	// OpsPerWriter is the number of operations each writer performs per
	// round. 0 means 20.
	OpsPerWriter int
	// Cores is the platform width for the fault-driven capacity
	// scenario. 0 means faults.NumCores.
	Cores int
	// Policy ranks tasks for shedding, eviction and readmission. The
	// zero Policy values every task equally.
	Policy online.Policy
	// Metrics, when non-nil, is the registry the manager's instruments
	// are registered into (so a caller — cmd/ftsim — can export them
	// over HTTP while the storm runs). nil uses an internal registry.
	// Either way the harness cross-checks the counters against its own
	// tallies at every quiescent point and snapshots them into
	// Result.Metrics.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Rounds == 0 {
		o.Rounds = 8
	}
	if o.Writers == 0 {
		for _, mode := range task.Modes() {
			o.Writers += mode.Channels()
		}
	}
	if o.OpsPerWriter == 0 {
		o.OpsPerWriter = 20
	}
	if o.Cores == 0 {
		o.Cores = faults.NumCores
	}
	return o
}

// Result tallies what a chaos run did.
type Result struct {
	Rounds       int
	Ops          int // admission-side operations performed
	Admits       int // successful AdmitBatch calls
	Rejects      int // AdmitBatch calls rejected (typed)
	Partials     int // AdmitBatchPartial calls
	Shed         int // tasks shed by partial admission
	Removes      int // successful RemoveBatch calls
	Revokes      int // successful Revoke calls
	Restores     int // successful Restore calls
	Evicted      int // tasks evicted by revocations
	Readmitted   int // tasks readmitted by restores
	Consolidates int // Consolidate sweeps
	Fallbacks    int // envelope-fallback events (patch bailed to full recompile)
	Rebuilds     int // consolidated events (channel stream rebuilt from scratch)

	// TasksAdmitted / TasksRemoved count individual tasks through
	// AdmitBatch (and the admitted part of partial batches) and
	// RemoveBatch — the per-task side of the batch counters above, kept
	// so the metric conservation check has an independent tally.
	TasksAdmitted int
	TasksRemoved  int

	// Metrics is the final snapshot of the manager's instrument
	// registry, cross-checked against the tallies above at every
	// quiescent point.
	Metrics *metrics.Snapshot
}

// String renders the tallies on one line.
func (r *Result) String() string {
	return fmt.Sprintf("rounds %d ops %d: admits %d rejects %d partials %d shed %d removes %d | revokes %d restores %d evicted %d readmitted %d | consolidations %d rebuilds %d fallbacks %d",
		r.Rounds, r.Ops, r.Admits, r.Rejects, r.Partials, r.Shed, r.Removes,
		r.Revokes, r.Restores, r.Evicted, r.Readmitted, r.Consolidates, r.Rebuilds, r.Fallbacks)
}

// writer is one admission storm participant with its own guest
// namespace and bookkeeping of which guests are currently in the
// system (admitted — live or parked — and not yet removed).
type writer struct {
	idx      int
	mode     task.Mode
	ch       int
	inSystem map[string]task.Task
	next     int
	tally    Result
	failures []error
}

func (w *writer) newGuest(rng *rand.Rand, whale bool) task.Task {
	name := fmt.Sprintf("w%d-g%d", w.idx, w.next)
	w.next++
	c := 0.01 + 0.05*rng.Float64()
	if whale {
		c = 1.5 + rng.Float64() // far beyond the slack; forces shedding
	}
	periods := []float64{8, 10, 12, 16}
	return task.Task{Name: name, C: c, T: periods[rng.Intn(len(periods))], Mode: w.mode, Channel: w.ch}
}

func (w *writer) pickVictims(rng *rand.Rand, n int) []string {
	names := make([]string, 0, len(w.inSystem))
	for name := range w.inSystem {
		names = append(names, name)
	}
	// Map order is random but not seeded; sort for determinism of the
	// op sequence, then sample.
	sortStrings(names)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if n > len(names) {
		n = len(names)
	}
	return names[:n]
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// step performs one randomized operation against the manager.
func (w *writer) step(m *online.Manager, pol online.Policy, rng *rand.Rand) {
	w.tally.Ops++
	switch r := rng.Intn(10); {
	case r < 3: // all-or-nothing admit of 1–2 guests
		batch := []task.Task{w.newGuest(rng, false)}
		if rng.Intn(2) == 0 {
			batch = append(batch, w.newGuest(rng, false))
		}
		if err := m.AdmitBatch(batch); err == nil {
			w.tally.Admits++
			w.tally.TasksAdmitted += len(batch)
			for _, t := range batch {
				w.inSystem[t.Name] = t
			}
		} else if errors.Is(err, online.ErrRejected) {
			w.tally.Rejects++
		} else {
			w.failures = append(w.failures, fmt.Errorf("writer %d: admit: %w", w.idx, err))
		}
	case r < 6: // partial admit, sometimes with an inadmissible whale
		batch := []task.Task{w.newGuest(rng, false), w.newGuest(rng, false)}
		if rng.Intn(3) == 0 {
			batch = append(batch, w.newGuest(rng, true))
		}
		report, err := m.AdmitBatchPartial(batch, pol)
		if err != nil {
			w.failures = append(w.failures, fmt.Errorf("writer %d: partial admit: %w", w.idx, err))
			return
		}
		w.tally.Partials++
		w.tally.TasksAdmitted += len(report.Admitted)
		for _, t := range report.Admitted {
			w.inSystem[t.Name] = t
		}
		for _, v := range report.Rejected {
			if v.Code == online.VerdictShed {
				w.tally.Shed++
			}
		}
	case r < 9: // remove up to 2 in-system guests
		victims := w.pickVictims(rng, 1+rng.Intn(2))
		if len(victims) == 0 {
			return
		}
		err := online.Backoff{}.Retry(func() error { return m.RemoveBatch(victims) })
		if err == nil {
			w.tally.Removes++
			w.tally.TasksRemoved += len(victims)
			for _, name := range victims {
				delete(w.inSystem, name)
			}
		} else {
			w.failures = append(w.failures, fmt.Errorf("writer %d: remove %v: %w", w.idx, victims, err))
		}
	default:
		m.Consolidate()
		w.tally.Consolidates++
	}
}

// Run storms the manager and checks the full-state invariants at every
// quiescent point. pr must be the problem the manager was built from
// (its task set are the permanent residents; its Alg and O parameterise
// the from-scratch oracle), and the manager's initial configuration
// must allocate minimal slots (a ConfigFor or design-solve
// configuration), because the bit-identity oracle re-derives exactly
// that shape. The first violated invariant aborts the run with a
// descriptive error.
func Run(m *online.Manager, pr core.Problem, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	cfg := m.Config()
	residents := append(task.Set(nil), pr.Tasks...)
	total := &Result{}

	// Install the manager's instrument set; the quiescent checks
	// cross-check every counter against the harness's own tallies, so a
	// chaos run doubles as the metric-conservation proof.
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	m.SetMetrics(online.NewMetrics(reg))
	defer m.SetMetrics(nil)

	// Count the profile-maintenance events the manager reports while
	// the storm runs: patches that bailed to a full recompile and
	// channels rebuilt by consolidation.
	var fallbacks, rebuilds atomic.Int64
	m.SetEventSink(func(ev online.Event) {
		switch ev.Kind {
		case trace.EnvelopeFallback:
			fallbacks.Add(1)
		case trace.Consolidated:
			rebuilds.Add(1)
		}
	})
	defer m.SetEventSink(nil)
	defer func() {
		total.Fallbacks = int(fallbacks.Load())
		total.Rebuilds = int(rebuilds.Load())
		s := reg.Snapshot()
		total.Metrics = &s
	}()

	// The capacity scenario: per round, a Poisson fault schedule
	// rendered as revoke/restore pairs, each fault withdrawing the
	// struck core's share of the period. Odd rounds leave the last
	// revocation outstanding across the quiescent check, so the
	// invariants are exercised in degraded state too; the next round
	// (and the final cleanup) restores it.
	outstanding := 0.0

	writers := make([]*writer, opts.Writers)
	chanIdx := 0
	var coords []struct {
		mode task.Mode
		ch   int
	}
	for _, mode := range task.Modes() {
		for ch := 0; ch < mode.Channels(); ch++ {
			coords = append(coords, struct {
				mode task.Mode
				ch   int
			}{mode, ch})
		}
	}
	for i := range writers {
		c := coords[chanIdx%len(coords)]
		chanIdx++
		writers[i] = &writer{idx: i, mode: c.mode, ch: c.ch, inSystem: make(map[string]task.Task)}
	}

	for round := 0; round < opts.Rounds; round++ {
		if outstanding > 0 {
			rep, err := m.Restore(outstanding, opts.Policy)
			if err != nil {
				return total, fmt.Errorf("chaos: round %d: restore outstanding %.6f: %w", round, outstanding, err)
			}
			total.Restores++
			total.Readmitted += len(rep.Readmitted)
			outstanding = 0
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		var degradeErr error
		var readerErr error

		for _, w := range writers {
			wg.Add(1)
			go func(w *writer) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(opts.Seed + int64(round)*1000 + int64(w.idx)))
				for op := 0; op < opts.OpsPerWriter; op++ {
					w.step(m, opts.Policy, rng)
				}
			}(w)
		}

		// The degrade worker executes a fault-derived capacity scenario
		// concurrently with the admission storm.
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			horizon := timeu.FromUnits(50)
			sched, err := faults.Poisson{
				Rate:     0.08,
				Duration: timeu.FromUnits(2),
				Seed:     opts.Seed + int64(round),
				Cores:    opts.Cores,
			}.Schedule(horizon)
			if err != nil {
				degradeErr = fmt.Errorf("chaos: fault schedule: %w", err)
				return
			}
			steps, err := faults.CapacitySteps(sched, cfg.P, opts.Cores)
			if err != nil {
				degradeErr = fmt.Errorf("chaos: capacity steps: %w", err)
				return
			}
			if round%2 == 1 && len(steps) >= 2 {
				steps = steps[:len(steps)-1] // leave the last revocation in force
			}
			for _, s := range steps {
				if s.Restore {
					rep, err := m.Restore(s.Capacity, opts.Policy)
					if err != nil {
						degradeErr = fmt.Errorf("chaos: restore %.6f: %w", s.Capacity, err)
						return
					}
					total.Restores++
					total.Readmitted += len(rep.Readmitted)
					outstanding -= s.Capacity
				} else {
					rep, err := m.Revoke(s.Capacity, opts.Policy)
					if err != nil {
						degradeErr = fmt.Errorf("chaos: revoke %.6f: %w", s.Capacity, err)
						return
					}
					total.Revokes++
					total.Evicted += len(rep.Evicted)
					outstanding += s.Capacity
				}
			}
		}(round)

		// A reader hammering the lock-free accessors and the
		// theorem-level oracle mid-storm.
		var readerWg sync.WaitGroup
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := m.Config().P; got != cfg.P {
					readerErr = fmt.Errorf("chaos: period changed mid-storm: %g → %g", cfg.P, got)
					return
				}
				if s := m.Slack(); s < -core.SlotFitTol {
					readerErr = fmt.Errorf("chaos: negative slack %g", s)
					return
				}
				if err := m.Verify(); err != nil {
					readerErr = fmt.Errorf("chaos: mid-storm Verify: %w", err)
					return
				}
			}
		}()

		wg.Wait()
		close(stop)
		readerWg.Wait()
		total.Rounds++
		if degradeErr != nil {
			return total, degradeErr
		}
		if readerErr != nil {
			return total, readerErr
		}
		for _, w := range writers {
			if len(w.failures) > 0 {
				return total, fmt.Errorf("chaos: round %d: %w", round, w.failures[0])
			}
			mergeTally(total, &w.tally)
			w.tally = Result{}
		}
		if err := checkQuiescent(m, pr, writers, residents, round); err != nil {
			return total, err
		}
		if err := checkMetricConservation(reg, total, fallbacks.Load(), rebuilds.Load(), m, round); err != nil {
			return total, err
		}
	}

	// Final cleanup: every guest leaves (live or parked — RemoveBatch
	// handles both), all revoked capacity returns, and the system must
	// be back to exactly the residents at the from-scratch solve.
	for _, w := range writers {
		names := make([]string, 0, len(w.inSystem))
		for name := range w.inSystem {
			names = append(names, name)
		}
		sortStrings(names)
		if len(names) == 0 {
			continue
		}
		if err := m.RemoveBatch(names); err != nil {
			return total, fmt.Errorf("chaos: cleanup remove writer %d: %w", w.idx, err)
		}
		total.Removes++
		total.TasksRemoved += len(names)
		w.inSystem = make(map[string]task.Task)
	}
	if rev := m.Revoked(); rev > 0 {
		rep, err := m.Restore(rev, opts.Policy)
		if err != nil {
			return total, fmt.Errorf("chaos: cleanup restore %.6f: %w", rev, err)
		}
		total.Restores++
		total.Readmitted += len(rep.Readmitted)
	}
	// Any resident still parked (evicted while guests held the space,
	// restore exhausted) is readmitted by a remove + admit round trip.
	if parked := m.Parked(); len(parked) > 0 {
		if err := m.RemoveBatch(parked.Names()); err != nil {
			return total, fmt.Errorf("chaos: cleanup unpark remove: %w", err)
		}
		total.Removes++
		total.TasksRemoved += len(parked)
		if err := m.AdmitBatch(parked); err != nil {
			return total, fmt.Errorf("chaos: cleanup unpark readmit: %w", err)
		}
		total.Admits++
		total.TasksAdmitted += len(parked)
	}
	if err := checkQuiescent(m, pr, writers, residents, opts.Rounds); err != nil {
		return total, fmt.Errorf("chaos: after cleanup: %w", err)
	}
	if err := checkMetricConservation(reg, total, fallbacks.Load(), rebuilds.Load(), m, opts.Rounds); err != nil {
		return total, fmt.Errorf("chaos: after cleanup: %w", err)
	}
	if got := len(m.Tasks()); got != len(residents) {
		return total, fmt.Errorf("chaos: after cleanup %d tasks live, want the %d residents", got, len(residents))
	}
	if rev := m.Revoked(); rev != 0 {
		return total, fmt.Errorf("chaos: after cleanup %.6f still revoked", rev)
	}
	if parked := m.Parked(); len(parked) != 0 {
		return total, fmt.Errorf("chaos: after cleanup %d tasks still parked", len(parked))
	}
	return total, nil
}

func mergeTally(dst, src *Result) {
	dst.Ops += src.Ops
	dst.Admits += src.Admits
	dst.Rejects += src.Rejects
	dst.Partials += src.Partials
	dst.Shed += src.Shed
	dst.Removes += src.Removes
	dst.Consolidates += src.Consolidates
	dst.TasksAdmitted += src.TasksAdmitted
	dst.TasksRemoved += src.TasksRemoved
}

// checkMetricConservation cross-checks the manager's instrument set
// against the harness's own tallies at a quiescent point: every
// counter the wrappers bump must equal what the storm actually did —
// metrics lose nothing and invent nothing. RemoveRejected is the one
// counter with no harness-side twin: each attempt of a Backoff retry
// loop bumps it, and the harness only tallies final outcomes.
func checkMetricConservation(reg *metrics.Registry, total *Result, fallbacks, rebuilds int64, m *online.Manager, round int) error {
	s := reg.Snapshot()
	for _, c := range []struct {
		name string
		want int
	}{
		{"online.admit.batches", total.Admits},
		{"online.admit.rejected", total.Rejects},
		{"online.remove.batches", total.Removes},
		{"online.partial.batches", total.Partials},
		{"online.tasks.admitted", total.TasksAdmitted},
		{"online.tasks.removed", total.TasksRemoved},
		{"online.tasks.shed", total.Shed},
		{"online.revokes", total.Revokes},
		{"online.restores", total.Restores},
		{"online.tasks.evicted", total.Evicted},
		{"online.tasks.readmitted", total.Readmitted},
		{"online.consolidations", int(rebuilds)},
		{"online.envelope.fallbacks", int(fallbacks)},
	} {
		if got := s.Counters[c.name]; got != uint64(c.want) {
			return fmt.Errorf("chaos: round %d: metric %s = %d, harness tallied %d", round, c.name, got, c.want)
		}
	}
	const tol = 1e-9
	for _, g := range []struct {
		name string
		want float64
	}{
		{"online.live_tasks", float64(len(m.Tasks()))},
		{"online.parked_tasks", float64(len(m.Parked()))},
		{"online.revoked_capacity", m.Revoked()},
		{"online.slack", m.Slack()},
	} {
		got := s.Gauges[g.name]
		if diff := got - g.want; diff > tol || diff < -tol {
			return fmt.Errorf("chaos: round %d: gauge %s = %g, live state says %g", round, g.name, got, g.want)
		}
	}
	return nil
}

// checkQuiescent runs the full-state invariants at a quiescent point:
// no reconfiguration in flight, so the manager state must be exactly
// re-derivable from the bookkeeping.
func checkQuiescent(m *online.Manager, pr core.Problem, writers []*writer, residents task.Set, round int) error {
	if err := m.Verify(); err != nil {
		return fmt.Errorf("chaos: round %d: Verify: %w", round, err)
	}
	if err := m.CheckProfiles(); err != nil {
		return fmt.Errorf("chaos: round %d: envelope audit: %w", round, err)
	}
	live := m.Tasks()
	parked := m.Parked()
	cfg := m.Config()
	revoked := m.Revoked()

	// Capacity: the slots fit the unrevoked capacity.
	if cfg.Q.Total() > cfg.P-revoked+core.SlotFitTol {
		return fmt.Errorf("chaos: round %d: slots %.9f exceed capacity %.9f (revoked %.6f)",
			round, cfg.Q.Total(), cfg.P-revoked, revoked)
	}

	// Conservation: live ∪ parked == residents ∪ in-system guests, no
	// name on both sides, nothing lost, nothing duplicated.
	seen := make(map[string]int, len(live)+len(parked))
	for _, t := range live {
		seen[t.Name]++
	}
	for _, t := range parked {
		seen[t.Name]++
	}
	for name, n := range seen {
		if n > 1 {
			return fmt.Errorf("chaos: round %d: task %q present %d times across live and parked", round, name, n)
		}
	}
	expected := make(map[string]bool, len(seen))
	for _, t := range residents {
		expected[t.Name] = true
	}
	for _, w := range writers {
		for name := range w.inSystem {
			expected[name] = true
		}
	}
	for name := range expected {
		if seen[name] == 0 {
			return fmt.Errorf("chaos: round %d: task %q lost (admitted, never removed, neither live nor parked)", round, name)
		}
	}
	for name := range seen {
		if !expected[name] {
			return fmt.Errorf("chaos: round %d: unexpected task %q in the system", round, name)
		}
	}

	// Bit-identity: the live configuration equals the from-scratch
	// solve of the live set at the fixed period.
	cp, err := core.Problem{Tasks: live, Alg: pr.Alg, O: pr.O}.Compile()
	if err != nil {
		return fmt.Errorf("chaos: round %d: oracle compile: %w", round, err)
	}
	want, err := cp.ConfigFor(cfg.P)
	if err != nil {
		return fmt.Errorf("chaos: round %d: oracle solve: %w", round, err)
	}
	if cfg != want {
		return fmt.Errorf("chaos: round %d: live config %+v differs from from-scratch solve %+v", round, cfg, want)
	}
	return nil
}
