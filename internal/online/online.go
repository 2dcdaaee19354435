// Package online implements run-time reconfiguration of a deployed
// platform: admitting newly arriving tasks and releasing departing ones
// by growing and shrinking the mode slots within the period's slack.
//
// This is precisely the scenario the paper's second design goal targets
// (Section 4: "there may be design scenarios where some tasks arrive
// dynamically and it would be very convenient to shrink or enlarge the
// time quanta"): the max-flexibility solution leaves 12.1 % of the
// bandwidth redistributable, and this package is the admission
// controller that spends and reclaims it.
//
// The period P is fixed at run time (changing it would re-time every
// slot boundary); only the slot lengths move. Admission recomputes the
// affected modes' minimum quanta with the candidate tasks included and
// accepts iff the grown slots fit into the period. Each accepted
// reconfiguration therefore preserves the Eq. (12)–(14) guarantees of
// every task already in the system.
//
// The manager is built for bursty, concurrent reconfiguration traffic:
//
//   - Batched: AdmitBatch and RemoveBatch reshape once for a whole
//     group of arrivals or departures — all-or-nothing, one candidate
//     set, one profile patch per touched channel
//     (analysis.Profile.AddTasks/DropTasks in place, one demand-row
//     pass for the group instead of one per task; the channel's slot
//     is then read with one MinQ scan of that row, so the row is not
//     pruned for a value read once), one configuration swap.
//     Admit and Remove are the k=1 conveniences.
//
//   - Sharded: each channel carries its own lock, so batches touching
//     disjoint channels patch their demand profiles concurrently. Only
//     the final decide-and-swap step — comparing the per-mode worst
//     quanta against the period — serialises, on a short commit mutex,
//     because the slots of all three modes share the one period.
//
//   - Non-blocking reads: the live core.Config and the admitted task
//     set are published by one atomic pointer swap per reconfiguration,
//     so Config, Slack and Tasks never block behind a reshape. Every
//     reconfiguration — a batch, a partial admission, Revoke, Restore —
//     publishes one way, as a delta of the live and parked sets: the
//     next live set is built by bulk copies of the current one, every
//     live task carries a publication sequence number, ascending along
//     the live set, so a leaving task is located by binary search, and
//     a commit costs a copy of the live set plus work proportional to
//     its change. Every profile patch made before the commit is logged,
//     and one undo replays the log in reverse when the operation
//     rejects.
//
//   - Bounded memory: a channel's profile keeps one demand row per
//     deadline point, and a row widened by guests with new deadlines
//     keeps its capacity after they leave, until a departure leaves
//     that capacity at analysis.MaxMemRatio times the live points; the
//     profile then reallocates the row to exactly its length. A
//     long-lived high-churn manager's footprint therefore stays
//     proportional to the live task set with no policy to tune.
//
// And it degrades gracefully instead of failing hard:
//
//   - Partial admission: AdmitBatchPartial keeps the admissible part of
//     a batch that does not fit wholesale, shedding the lowest-value
//     members under a caller-supplied Policy — one profile patch per
//     shed, not a recompile per candidate — and reports every member's
//     fate as a typed TaskVerdict.
//
//   - Degraded-mode operation: Revoke models a capacity loss (a struck
//     core, a reconfiguration squeeze) by withdrawing part of the
//     period; the manager evicts the lowest-value tasks until the
//     survivors fit the reduced capacity and parks them for Restore,
//     which readmits them by value as capacity returns.
//
//   - Typed errors: every failure wraps ErrRejected; transient
//     in-flight conflicts additionally wrap ErrBusy (retry them with
//     Backoff.Retry); capacity failures are *Rejection values carrying
//     the offending mode, binding channel, requested versus maximum
//     slot, and per-task verdicts.
//
// The theorem-level whole-system re-check — which rebuilds every
// channel's demand from scratch and would dominate each admission — is
// available on demand as Verify instead of being paid on every reshape.
package online

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/trace"
)

// DefaultConsolidateRatio is analysis.MaxMemRatio.
//
// Deprecated: the manager no longer rebuilds channels; a profile trims
// its own demand row at analysis.MaxMemRatio times its length.
const DefaultConsolidateRatio = analysis.MaxMemRatio

// Manager tracks a live configuration and reconfigures it in batches.
// It is safe for concurrent use: batches touching disjoint channels
// proceed in parallel and readers never block behind a reshape.
type Manager struct {
	alg  analysis.Alg
	over core.Overheads
	p    float64 // the fixed period, immutable after construction

	// cur is the committed state — configuration, live task set and
	// degraded-mode state in one internally consistent record — replaced
	// by one atomic pointer swap per reconfiguration. The records come
	// from a small ring recycled under commitMu: a retired record is
	// rewritten in place once no reader holds a reference, so
	// steady-state publication allocates nothing (see snapshot).
	cur atomic.Pointer[snapshot]
	// ring holds the recyclable snapshot records; ringIdx is the last
	// slot handed out. Both are guarded by commitMu.
	ring    [snapshotRing]*snapshot
	ringIdx int

	// seqs[seqCur] holds the publication sequence numbers of cur.live,
	// position for position; the other array is the next publication's
	// target. Every publication appends its newcomers numbered from
	// nextSeq up and keeps the survivors' order, so the numbers ascend
	// along the live set and a departing task — whose registry entry
	// holds its number — is found by binary search. 64-bit numbers do
	// not wrap. gone is publishLocked's scratch for the departing
	// positions. All guarded by commitMu.
	seqs    [2][]uint64
	seqCur  int
	nextSeq uint64
	gone    []int

	// commitMu serialises the decide-and-swap step of every
	// reconfiguration: the per-mode worst-quantum comparison against the
	// available capacity, the snapshot swap and the minq cache
	// updates all happen under it. The expensive profile patching
	// happens before it, under the channel locks only.
	commitMu sync.Mutex

	// nameMu guards names, the global task registry, and nameFree, the
	// registry's entry freelist. It is a leaf lock: nothing else is
	// acquired while holding it.
	nameMu   sync.Mutex
	names    map[string]*nameEntry
	nameFree []*nameEntry

	channels [task.NumModes][]*channelState

	// events is the optional robustness-event sink (atomic so
	// SetEventSink needs no lock).
	events atomic.Pointer[func(Event)]

	// met is the optional metrics instrument set (atomic so SetMetrics
	// needs no lock; nil means instrumentation is off).
	met atomic.Pointer[Metrics]

	// now is the simulated clock a scenario driver advances with SetNow;
	// every emitted Event is stamped with it. Zero for wall-clock
	// managers that never set it.
	now atomic.Int64
}

// snapshotRing is the number of recyclable snapshot records. Readers
// hold a record only for the handful of instructions it takes to copy
// what they need, so a small ring keeps the writer from ever having to
// allocate; if every spare slot is somehow pinned the writer allocates
// a fresh record and lets the pinned one go to the collector.
const snapshotRing = 4

// snapshot is one committed manager state: the live configuration, the
// admitted task set and the degraded-mode state (revoked capacity plus
// the parked tasks awaiting Restore), consistent as a unit.
//
// Publication is a pooled read-copy-update: the writer (under
// commitMu) picks a retired ring record — one that is not current and
// has no reader references — rewrites its fields in place reusing the
// slice backings, and publishes it with one cur.Store. Every
// reconfiguration's live set, Revoke's and Restore's included, is
// written as bulk copies of the current one, split around the leaving
// tasks' positions, which their publication sequence numbers locate by
// binary search in the commit-side array aligned with the current
// record (Manager.seqs); the record itself holds no numbers. A live
// backing that must grow is sized to what it holds. Readers pin a
// record with acquire/release around their copies. The happens-before
// chain is carried entirely by the atomics: writer field-writes →
// cur.Store (release) → reader cur.Load (acquire) → reader field-reads
// → refs release → writer refs.Load (acquire) → next rewrite. That
// makes the scheme race-detector-clean, unlike a seqlock.
type snapshot struct {
	cfg     core.Config
	live    task.Set
	revoked float64
	parked  task.Set
	refs    atomic.Int64
}

// acquire pins the current snapshot for reading. The caller must call
// release when done copying out of it — promptly, so the writer's ring
// stays recyclable.
func (m *Manager) acquire() *snapshot {
	for {
		s := m.cur.Load()
		s.refs.Add(1)
		// Re-check after pinning: if the record is still current the
		// writer cannot have started rewriting it (it skips records with
		// live references, and a record is only rewritten after being
		// retired). If it moved on, unpin and retry.
		if m.cur.Load() == s {
			return s
		}
		s.refs.Add(-1)
	}
}

func (s *snapshot) release() { s.refs.Add(-1) }

// nextSnapLocked returns a writable snapshot record: a ring slot that
// is neither current nor pinned by a reader. Its slice backings carry
// over, so steady-state publication reuses them and allocates nothing.
// Caller holds commitMu.
func (m *Manager) nextSnapLocked() *snapshot {
	cur := m.cur.Load()
	for range m.ring {
		m.ringIdx = (m.ringIdx + 1) % len(m.ring)
		s := m.ring[m.ringIdx]
		if s == nil {
			s = &snapshot{}
			m.ring[m.ringIdx] = s
			return s
		}
		if s != cur && s.refs.Load() == 0 {
			return s
		}
	}
	// Every spare record is pinned by a slow reader: retire this slot's
	// record to the collector and start a fresh one.
	s := &snapshot{}
	m.ring[m.ringIdx] = s
	return s
}

// sized returns buf emptied, with room for n elements: buf's own
// backing when it is large enough, else a new one of exactly n, so a
// recycled backing holds what it publishes rather than a doubling's
// headroom.
func sized[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, 0, n)
	}
	return buf[:0]
}

// setStateGauges refreshes the published-state gauges from the record
// just committed. Atomic stores only; no-op without instrumentation.
func (m *Manager) setStateGauges(s *snapshot) {
	if mt := m.met.Load(); mt != nil {
		mt.LiveTasks.Set(float64(len(s.live)))
		mt.ParkedTasks.Set(float64(len(s.parked)))
		mt.RevokedCapacity.Set(s.revoked)
		mt.Slack.Set(s.cfg.Slack())
	}
}

// Event is one robustness notification: tasks shed by partial
// admission, evicted by a revocation, or readmitted by a restore, the
// capacity transitions themselves, and the incremental-analysis
// housekeeping: an envelope fallback for every profile patch that bails
// to a full recompile, the patches of rejected operations and their
// undo included. Delivered synchronously to the sink installed with
// SetEventSink.
type Event struct {
	// Kind is trace.Shed, trace.Evicted, trace.Readmitted,
	// trace.Degraded, trace.Restored or trace.EnvelopeFallback.
	Kind trace.Kind
	// At is the simulated instant of the transition when a scenario
	// driver is advancing the manager's clock (SetNow); zero otherwise.
	At timeu.Ticks
	// Tasks names the affected tasks (shed, evicted or readmitted), in
	// policy order.
	Tasks []string
	// Revoked is the total capacity withdrawn after the transition.
	Revoked float64
	// Mode and Channel identify the affected channel for
	// EnvelopeFallback events.
	Mode    task.Mode
	Channel int
}

// nameEntry records one admitted (or in-flight) task under its unique
// name. pending entries are reserved by an uncommitted AdmitBatch or
// marked for departure by an uncommitted RemoveBatch; they block
// conflicting reconfigurations until their batch commits or aborts.
// parked entries were evicted by Revoke and await Restore: the task is
// out of the live set but its name stays claimed so readmission cannot
// collide. seq is a live task's publication sequence number (see
// Manager.seqs), written under commitMu and nameMu when the task is
// published.
type nameEntry struct {
	t       task.Task
	seq     uint64
	pending bool
	parked  bool
}

// channelState is one shard: a channel's compiled demand profile and
// its commit-side caches.
type channelState struct {
	mode task.Mode
	ch   int

	// mu serialises reconfigurations of this channel; batches touching
	// disjoint channels run concurrently. prof and patches are guarded
	// by mu.
	mu   sync.Mutex
	prof *analysis.Profile
	// patches counts the incremental updates committed to prof.
	patches int

	// minq caches prof.MinQ(P) for the committed profile. It is written
	// only under commitMu (by a committer that also holds mu) and read
	// under commitMu, so the decide step never touches another
	// channel's profile.
	minq float64
}

// NewManager starts from a verified problem/configuration pair, e.g. a
// design.Solution's Config. The problem is compiled internally; use
// NewManagerFromCompiled to reuse an existing compilation.
func NewManager(pr core.Problem, cfg core.Config) (*Manager, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	cp, err := pr.Compile()
	if err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	return NewManagerFromCompiled(cp, cfg)
}

// NewManagerFromCompiled starts run-time management from an
// already-compiled problem (e.g. the one a design solve built). The
// manager copies everything it will mutate — the per-channel profile
// slices and the task set — so reconfigurations never write into the
// caller's CompiledProblem: the source stays bit-identical however the
// manager churns, and several sibling managers may be built from one
// compilation. (The shared profiles start frozen; the first
// reconfiguration of a channel thaws an exclusive copy, which copies
// their deadline stream and demand row and is then patched in place.)
func NewManagerFromCompiled(cp *core.CompiledProblem, cfg core.Config) (*Manager, error) {
	pr := cp.Problem()
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if err := pr.Verify(cfg); err != nil {
		return nil, fmt.Errorf("online: initial configuration rejected: %w", err)
	}
	m := &Manager{
		alg:   pr.Alg,
		over:  pr.O,
		p:     cfg.P,
		names: make(map[string]*nameEntry, len(pr.Tasks)),
	}
	for _, mode := range task.Modes() {
		profs := cp.ChannelProfiles(mode) // already a copy, and we re-home it
		m.channels[mode] = make([]*channelState, len(profs))
		for ch, prof := range profs {
			m.channels[mode][ch] = &channelState{
				mode: mode,
				ch:   ch,
				prof: prof,
				minq: prof.MinQ(cfg.P),
			}
		}
	}
	// The initial set is numbered 0, 1, … in order (see Manager.seqs).
	first := &snapshot{cfg: cfg, live: append(task.Set(nil), pr.Tasks...)}
	m.seqs[0] = make([]uint64, len(first.live))
	for i, t := range first.live {
		m.seqs[0][i] = uint64(i)
		if t.Name != "" {
			m.names[t.Name] = &nameEntry{t: t, seq: uint64(i)}
		}
	}
	m.nextSeq = uint64(len(first.live))
	m.ring[0] = first
	m.cur.Store(first)
	return m, nil
}

// Config returns the current configuration. It never blocks behind a
// reshape: the live configuration is read off the pinned snapshot.
func (m *Manager) Config() core.Config {
	s := m.acquire()
	cfg := s.cfg
	s.release()
	return cfg
}

// Tasks returns a copy of the currently admitted task set (lock-free).
// Tasks evicted by Revoke are parked, not admitted; see Parked.
func (m *Manager) Tasks() task.Set {
	s := m.acquire()
	out := append(task.Set(nil), s.live...)
	s.release()
	return out
}

// Slack returns the bandwidth still redistributable (lock-free): the
// period minus the slots. Under degraded operation part of it is
// revoked; subtract Revoked for the spendable remainder.
func (m *Manager) Slack() float64 {
	s := m.acquire()
	v := s.cfg.Slack()
	s.release()
	return v
}

// Revoked returns the capacity currently withdrawn by Revoke
// (lock-free). Zero in normal operation.
func (m *Manager) Revoked() float64 {
	s := m.acquire()
	v := s.revoked
	s.release()
	return v
}

// Parked returns a copy of the tasks evicted under capacity loss and
// awaiting Restore, in eviction order (lock-free).
func (m *Manager) Parked() task.Set {
	s := m.acquire()
	out := append(task.Set(nil), s.parked...)
	s.release()
	return out
}

// SetEventSink installs fn as the robustness-event sink: it receives
// an Event for every shed, eviction, readmission and capacity
// transition. The sink is invoked synchronously while the manager
// holds internal locks, so it must be fast and must not call back into
// the manager. nil removes the sink.
func (m *Manager) SetEventSink(fn func(Event)) {
	if fn == nil {
		m.events.Store(nil)
		return
	}
	m.events.Store(&fn)
}

// SetMetrics installs (or, with nil, removes) the metrics instrument
// set. The write side of every instrument is a handful of atomic
// operations, so enabling metrics adds zero allocations to the
// admit+remove cycle; the instruments may be shared with other
// managers or layers through their common metrics.Registry. Metrics
// complement the event sink: events say what happened, metrics say how
// much and how fast.
func (m *Manager) SetMetrics(mt *Metrics) { m.met.Store(mt) }

// SetNow advances the manager's simulated clock. It is the scenario-
// driver hook: a replay (internal/sim) sets the workload event's
// instant before applying it, so every robustness Event the operation
// emits lands on the simulation timeline. Wall-clock use never needs
// it.
func (m *Manager) SetNow(t timeu.Ticks) { m.now.Store(int64(t)) }

// Alg returns the per-channel scheduling algorithm the manager analyses
// with (fixed at construction).
func (m *Manager) Alg() analysis.Alg { return m.alg }

func (m *Manager) emit(ev Event) {
	if fn := m.events.Load(); fn != nil {
		ev.At = timeu.Ticks(m.now.Load())
		(*fn)(ev)
	}
}

// Verify re-checks the live configuration against the original theorems
// (core.Problem.Verify): every channel of every mode schedulable on its
// (α, Δ) supply, structure valid, and — under degraded operation — the
// slots within the unrevoked capacity. It is the independent oracle for
// the compiled fast path — full recompilation cost, so it is offered on
// demand rather than paid on every reshape. The (configuration, task
// set, degraded state) triple comes consistent from one pinned
// snapshot, so Verify never contends with writers.
func (m *Manager) Verify() error {
	s := m.acquire()
	cfg := s.cfg
	tasks := append(task.Set(nil), s.live...)
	revoked := s.revoked
	s.release()
	if math.IsNaN(revoked) || math.IsInf(revoked, 0) {
		return fmt.Errorf("online: revoked capacity %g is not finite", revoked)
	}
	if cfg.Q.Total() > cfg.P-revoked+core.SlotFitTol {
		return fmt.Errorf("online: slots total %.6f exceed the unrevoked capacity %.6f (period %.6f minus %.6f revoked)",
			cfg.Q.Total(), cfg.P-revoked, cfg.P, revoked)
	}
	pr := core.Problem{Tasks: tasks, Alg: m.alg, O: m.over}
	return pr.Verify(cfg)
}

// opScratch is one reconfiguration's reusable working storage: the
// normalized batch, the locked channels, the undo log of the profile
// patches made under their locks, and the candidate and re-split
// buffers. Pooled because the profile layer copies every task value it
// is handed (AddTasks/DropTasks append values, publish copies values
// into the snapshot), so nothing here escapes the operation — which is
// what makes the steady-state admit+remove cycle allocation-free.
type opScratch struct {
	norm    task.Set
	touched []touchedChannel
	// log holds every profile patch the operation made under the
	// channel locks, oldest first; logged holds their tasks back to
	// back. undo replays the log in reverse.
	log    []patchRec
	logged task.Set
	live   task.Set
	parked task.Set
}

// patchRec is one logged profile patch: the tasks from logged[lo] up
// to the next patch's, added to (or dropped from) tc's profile, and
// tc's candidate minimum before the patch.
type patchRec struct {
	tc    *touchedChannel
	lo    int
	added bool
	minq  float64
}

var opPool = sync.Pool{New: func() any { return new(opScratch) }}

// patchLocked applies sc.logged[lo:], the tasks just appended there, to
// tc's profile — added, or dropped when !add — reports a fallback,
// logs the patch and reads tc's candidate minimum off the patched
// profile. On error the profile is unchanged and nothing is logged.
// Caller holds tc's channel lock.
func (m *Manager) patchLocked(sc *opScratch, tc *touchedChannel, lo int, add bool) error {
	ts := sc.logged[lo:]
	tc.thaw()
	fallbacks := tc.st.prof.Fallbacks()
	var err error
	if add {
		err = tc.st.prof.AddTasks(ts)
	} else {
		err = tc.st.prof.DropTasks(ts)
	}
	if err != nil {
		sc.logged = sc.logged[:lo]
		return err
	}
	m.noteFallback(tc, fallbacks)
	sc.log = append(sc.log, patchRec{tc: tc, lo: lo, added: add, minq: tc.minq})
	tc.minq = tc.st.prof.MinQ(m.p)
	tc.patches++
	return nil
}

// noteFallback reports a patch of tc's profile that bailed to a full
// recompile (its fallback count moved on from fallbacks, the count
// before the patch) as one EnvelopeFallback event and one count of the
// EnvelopeFallbacks counter, whether the operation then commits,
// rejects or undoes the patch. Caller holds tc's channel lock.
func (m *Manager) noteFallback(tc *touchedChannel, fallbacks uint64) {
	if tc.st.prof.Fallbacks() == fallbacks {
		return
	}
	if mt := m.met.Load(); mt != nil {
		mt.EnvelopeFallbacks.Inc()
	}
	m.emit(Event{Kind: trace.EnvelopeFallback, Mode: tc.st.mode, Channel: tc.st.ch, Revoked: m.Revoked()})
}

// patchOne is patchLocked of the single task t on its locked channel.
func (m *Manager) patchOne(sc *opScratch, t task.Task, add bool) error {
	sc.logged = append(sc.logged, t)
	return m.patchLocked(sc, findTouched(sc.touched, t), len(sc.logged)-1, add)
}

// patchGroups is the patch step of the batch paths: one patch per
// locked channel holding members, with its members in batch order,
// added or dropped. A channel locked with none of them (a parked
// victim's) is left alone. On a failed patch it undoes the patches
// before it and returns the channel that failed. Caller holds the
// channel locks.
func (m *Manager) patchGroups(sc *opScratch, members task.Set, add bool) (*touchedChannel, error) {
	mt := m.met.Load()
	var patch0 time.Time
	if mt != nil {
		patch0 = time.Now()
	}
	for i := range sc.touched {
		tc := &sc.touched[i]
		lo := len(sc.logged)
		for _, t := range members {
			if t.Mode == tc.st.mode && t.Channel == tc.st.ch {
				sc.logged = append(sc.logged, t)
			}
		}
		if len(sc.logged) == lo {
			continue
		}
		if err := m.patchLocked(sc, tc, lo, add); err != nil {
			m.undo(sc, 0)
			return tc, err
		}
	}
	if mt != nil {
		mt.PatchLatency.ObserveSince(patch0)
	}
	return nil, nil
}

// undo reverts the patches logged after the first n, newest first, and
// truncates the log to n. Each inverse patch restores its profile's
// stream, owner counts and demand row exactly (AddTasks and DropTasks
// of the same tasks are inverses; a task re-added to an EDF profile
// joins its task list at the end), and the channel's candidate minimum
// and patch count go back with it. An inverse patch that falls back is
// reported like any other. Caller holds the channel locks.
func (m *Manager) undo(sc *opScratch, n int) {
	for i := len(sc.log) - 1; i >= n; i-- {
		p := &sc.log[i]
		fallbacks := p.tc.st.prof.Fallbacks()
		if ts := sc.logged[p.lo:]; p.added {
			_ = p.tc.st.prof.DropTasks(ts) // cannot fail: the tasks were added
		} else {
			_ = p.tc.st.prof.AddTasks(ts) // cannot fail: the tasks were held
		}
		m.noteFallback(p.tc, fallbacks)
		p.tc.minq = p.minq
		p.tc.patches--
		sc.logged = sc.logged[:p.lo]
	}
	sc.log = sc.log[:n]
}

// checkMember normalizes t and says why it cannot join a batch whose
// accepted members so far are prev: "" when it can.
func checkMember(t task.Task, prev task.Set) (task.Task, string) {
	t = t.Normalized()
	if err := t.Validate(); err != nil {
		return t, err.Error()
	}
	if t.Name == "" {
		return t, "task must have a name (anonymous tasks cannot be removed later)"
	}
	// Dup check by linear scan: batches are small, and a map here
	// allocates on the hottest path.
	for _, p := range prev {
		if p.Name == t.Name {
			return t, "name duplicated in the batch"
		}
	}
	return t, ""
}

// patchRejection is the rejection of a batch whose profile patch failed
// on tc's channel (an unanalysable horizon, say): that channel's
// members are invalid with the patch error, and every other member is
// rejected with them, since nothing of the batch was admitted.
func patchRejection(batch task.Set, tc *touchedChannel, err error) *Rejection {
	rej := &Rejection{Verdicts: make([]TaskVerdict, len(batch))}
	for i, t := range batch {
		v := TaskVerdict{Task: t, Code: VerdictRejected, Detail: "a batch member's channel could not be analysed"}
		if t.Mode == tc.st.mode && t.Channel == tc.st.ch {
			v.Code, v.Detail = VerdictInvalid, err.Error()
		}
		rej.Verdicts[i] = v
	}
	return rej
}

// Admit attempts to add one task at run time; it is AdmitBatch of a
// single-element batch. The task's mode slot is resized to the new
// minimum quantum; the resulting slots must fit the period. On success
// the new configuration is live; on failure the system is untouched.
func (m *Manager) Admit(t task.Task) error { return m.AdmitBatch([]task.Task{t}) }

// Remove releases one task by name; it is RemoveBatch of a
// single-element batch.
func (m *Manager) Remove(name string) error { return m.RemoveBatch([]string{name}) }

// AdmitBatch attempts to add a group of tasks in one reconfiguration.
// The batch is all-or-nothing: either every task is admitted — one
// candidate set, one profile patch per touched channel, one
// configuration swap — or none is and the system is untouched. Each
// task must carry a unique non-empty name (anonymous tasks would be
// unremovable, and duplicates would make their namesake unaddressable);
// a name may not collide with an admitted or parked task or with the
// rest of the batch. Batches touching disjoint channels reconfigure
// concurrently. An empty batch is a no-op. Failures wrap ErrRejected
// (and ErrBusy for transient in-flight conflicts); capacity failures
// are *Rejection values with the overflow detail. Use AdmitBatchPartial
// to keep the admissible part of an overflowing batch instead.
func (m *Manager) AdmitBatch(batch []task.Task) error {
	if len(batch) == 0 {
		return nil
	}
	err := m.admitBatch(batch)
	if mt := m.met.Load(); mt != nil {
		if err == nil {
			mt.AdmitBatches.Inc()
			mt.TasksAdmitted.Add(uint64(len(batch)))
		} else {
			mt.AdmitRejected.Inc()
		}
	}
	return err
}

func (m *Manager) admitBatch(batch []task.Task) error {
	sc := opPool.Get().(*opScratch)
	defer opPool.Put(sc)
	norm := sc.norm[:0]
	for _, t := range batch {
		t, bad := checkMember(t, norm)
		if bad != "" {
			sc.norm = norm
			return rejectTask(t, VerdictInvalid, bad)
		}
		norm = append(norm, t)
	}
	sc.norm = norm
	if err := m.reserveAdmit(norm); err != nil {
		return err
	}
	m.lockChannels(sc, norm)
	defer sc.unlock()
	if tc, err := m.patchGroups(sc, norm, true); err != nil {
		m.unreserveAdmit(norm)
		return patchRejection(norm, tc, err)
	}
	if err := m.commit(sc, delta{join: norm}); err != nil {
		m.undo(sc, 0)
		m.unreserveAdmit(norm)
		return err
	}
	return nil
}

// RemoveBatch releases a group of tasks by name in one reconfiguration,
// shrinking the affected mode slots back to the new minima and
// reclaiming the difference as slack. Like AdmitBatch it is
// all-or-nothing: every name must denote an admitted or parked task and
// appear once, or nothing is removed (removing a parked task cancels
// its pending readmission). An empty batch is a no-op. Failures wrap
// ErrRejected; a name reserved by an in-flight batch additionally
// wraps ErrBusy.
func (m *Manager) RemoveBatch(names []string) error {
	if len(names) == 0 {
		return nil
	}
	err := m.removeBatch(names)
	if mt := m.met.Load(); mt != nil {
		if err == nil {
			mt.RemoveBatches.Inc()
			mt.TasksRemoved.Add(uint64(len(names)))
		} else {
			mt.RemoveRejected.Inc()
		}
	}
	return err
}

func (m *Manager) removeBatch(names []string) error {
	sc := opPool.Get().(*opScratch)
	defer opPool.Put(sc)
	victims, parked, err := m.reserveRemove(names, sc.norm[:0], sc.parked[:0])
	sc.norm, sc.parked = victims, parked
	if err != nil {
		return err
	}
	all := victims
	if len(parked) > 0 {
		all = append(append(make(task.Set, 0, len(victims)+len(parked)), victims...), parked...)
	}
	m.lockChannels(sc, all)
	defer sc.unlock()
	// Re-split under the channel locks: a Revoke or Restore that ran
	// between reservation and lock acquisition may have parked a live
	// victim (or readmitted a parked one), and the two classes need
	// different work — live victims leave the channel profiles, parked
	// ones already did when they were evicted. Revoke/Restore hold every
	// channel lock, so the classification is stable from here on.
	m.nameMu.Lock()
	live := sc.live[:0]
	parked = parked[:0]
	for _, t := range all {
		if m.names[t.Name].parked {
			parked = append(parked, t)
		} else {
			live = append(live, t)
		}
	}
	sc.live, sc.parked = live, parked
	m.nameMu.Unlock()
	if _, err := m.patchGroups(sc, live, false); err != nil {
		m.unreserveRemove(live, parked)
		return fmt.Errorf("%w: %v", ErrRejected, err) // cannot happen: victims came from the registry
	}
	if err := m.commit(sc, delta{leave: live, unpark: parked}); err != nil {
		m.undo(sc, 0)
		m.unreserveRemove(live, parked)
		return err // cannot happen: shrinking always fits; defensive
	}
	return nil
}

// nameFreeMax bounds the registry's entry freelist; beyond it retired
// entries go to the collector.
const nameFreeMax = 64

// newEntryLocked takes an entry off the freelist (or allocates one)
// and initialises it. Caller holds nameMu.
func (m *Manager) newEntryLocked(t task.Task, pending bool) *nameEntry {
	if n := len(m.nameFree); n > 0 {
		e := m.nameFree[n-1]
		m.nameFree = m.nameFree[:n-1]
		*e = nameEntry{t: t, pending: pending}
		return e
	}
	return &nameEntry{t: t, pending: pending}
}

// freeEntryLocked removes name, whose entry is e, from the registry
// and recycles the entry. Entry pointers never escape the registry
// (lookups copy what they need out under nameMu), so recycling is
// safe. Caller holds nameMu.
func (m *Manager) freeEntryLocked(name string, e *nameEntry) {
	delete(m.names, name)
	if len(m.nameFree) < nameFreeMax {
		m.nameFree = append(m.nameFree, e)
	}
}

// reserveAdmit claims the batch's names in the registry, rejecting
// duplicates within the batch and collisions with admitted, parked or
// in-flight tasks. On success the names stay reserved (pending) until
// the batch commits or unreserveAdmit rolls them back.
func (m *Manager) reserveAdmit(batch task.Set) error {
	m.nameMu.Lock()
	defer m.nameMu.Unlock()
	for i, t := range batch {
		if e, exists := m.names[t.Name]; exists {
			for _, u := range batch[:i] { // roll back this batch's claims
				m.freeEntryLocked(u.Name, m.names[u.Name])
			}
			return rejectTask(t, collisionVerdict(e), collisionDetail(e))
		}
		m.names[t.Name] = m.newEntryLocked(t, true)
	}
	return nil
}

// collisionVerdict classifies a name collision: transient (in-flight
// batch), parked, or plainly taken.
func collisionVerdict(e *nameEntry) VerdictCode {
	if e.pending {
		return VerdictBusy
	}
	return VerdictNameTaken
}

func collisionDetail(e *nameEntry) string {
	switch {
	case e.pending:
		return "name reserved by an in-flight batch"
	case e.parked:
		return "task evicted and parked for readmission"
	}
	return "task already admitted"
}

func (m *Manager) unreserveAdmit(batch task.Set) {
	m.nameMu.Lock()
	for _, t := range batch {
		m.freeEntryLocked(t.Name, m.names[t.Name])
	}
	m.nameMu.Unlock()
}

// reserveRemove marks the named entries pending and returns their task
// values (the exact values the channel profiles hold), split into live
// victims — whose channel profiles must be patched — and parked
// victims, which left the profiles when they were evicted. The results
// are appended into the caller's scratch slices (pass them length 0).
// Names must be unique within the batch and denote committed tasks; a
// task another batch is still admitting or removing is a transient
// conflict (ErrBusy).
func (m *Manager) reserveRemove(names []string, victimsScratch, parkedScratch task.Set) (victims, parked task.Set, err error) {
	m.nameMu.Lock()
	defer m.nameMu.Unlock()
	victims, parked = victimsScratch, parkedScratch
	rollback := func() {
		for _, t := range victims {
			m.names[t.Name].pending = false
		}
		for _, t := range parked {
			m.names[t.Name].pending = false
		}
	}
	for i, name := range names {
		if name == "" {
			rollback()
			return victims, parked, fmt.Errorf("%w: cannot remove by empty name", ErrRejected)
		}
		for _, prev := range names[:i] {
			if prev == name {
				rollback()
				return victims, parked, fmt.Errorf("%w: task %q listed twice in the batch", ErrRejected, name)
			}
		}
		e, ok := m.names[name]
		if !ok {
			rollback()
			return victims, parked, fmt.Errorf("%w: no task %q", ErrRejected, name)
		}
		if e.pending {
			rollback()
			return victims, parked, fmt.Errorf("%w: task %q: %w", ErrRejected, name, ErrBusy)
		}
		e.pending = true
		if e.parked {
			parked = append(parked, e.t)
		} else {
			victims = append(victims, e.t)
		}
	}
	return victims, parked, nil
}

func (m *Manager) unreserveRemove(victims, parked task.Set) {
	m.nameMu.Lock()
	for _, t := range victims {
		m.names[t.Name].pending = false
	}
	for _, t := range parked {
		m.names[t.Name].pending = false
	}
	m.nameMu.Unlock()
}

// touchedChannel is a locked shard's working state for one
// reconfiguration. The shard's profile is patched in place (thaw
// makes it exclusive first), so the candidate is not a sibling profile
// but the shard's own, with minq holding the candidate minimum the
// decide step compares; the operation's undo log (opScratch.log)
// records each patch so a rejected candidate can be rolled back.
// patches counts the incremental updates the candidate accumulated
// (partial admission sheds add more than one), folded into the shard's
// patch counter on commit.
type touchedChannel struct {
	st      *channelState
	minq    float64
	patches int
	// patched reports the profile was mutated.
	patched bool
}

// thaw prepares the shard's profile for in-place patching: makes it
// exclusive on first touch (the profiles installed at construction are
// shared with the CompiledProblem and must not be mutated). Idempotent;
// caller holds st.mu.
func (tc *touchedChannel) thaw() {
	tc.patched = true
	if !tc.st.prof.Exclusive() {
		tc.st.prof = tc.st.prof.Thawed()
	}
}

// findTouched returns the locked shard candidate holding t's channel.
func findTouched(touched []touchedChannel, t task.Task) *touchedChannel {
	for i := range touched {
		if tc := &touched[i]; tc.st.mode == t.Mode && tc.st.ch == t.Channel {
			return tc
		}
	}
	return nil
}

// lockChannels starts an operation on sc: it locks the shards members
// touch, in (mode, channel) order so concurrent batches with
// overlapping footprints cannot deadlock, into sc.touched, each
// candidate minimum seeded with the committed one, and empties the
// undo log. Dedup is a linear scan — batches touch a handful of
// channels, and a map here allocates on the hottest path. The caller
// unlocks with sc.unlock.
func (m *Manager) lockChannels(sc *opScratch, members task.Set) {
	touched := sc.touched[:0]
outer:
	for _, t := range members {
		st := m.channels[t.Mode][t.Channel]
		for i := range touched {
			if touched[i].st == st {
				continue outer
			}
		}
		touched = append(touched, touchedChannel{st: st})
	}
	if len(touched) > 1 {
		slices.SortFunc(touched, func(a, b touchedChannel) int {
			if a.st.mode != b.st.mode {
				return int(a.st.mode) - int(b.st.mode)
			}
			return a.st.ch - b.st.ch
		})
	}
	for i := range touched {
		tc := &touched[i]
		tc.st.mu.Lock()
		tc.minq = tc.st.minq
	}
	sc.touched, sc.log, sc.logged = touched, sc.log[:0], sc.logged[:0]
}

// lockAll is lockChannels of every shard — the global footprint Revoke
// and Restore need, in the same order, so degrade operations and
// batches cannot deadlock.
func (m *Manager) lockAll(sc *opScratch) {
	touched := sc.touched[:0]
	for _, mode := range task.Modes() {
		for _, st := range m.channels[mode] {
			st.mu.Lock()
			touched = append(touched, touchedChannel{st: st, minq: st.minq})
		}
	}
	sc.touched, sc.log, sc.logged = touched, sc.log[:0], sc.logged[:0]
}

// unlock releases the channel locks lockChannels or lockAll took.
func (sc *opScratch) unlock() {
	for i := range sc.touched {
		sc.touched[i].st.mu.Unlock()
	}
}

// candidateLocked computes the configuration the touched channels'
// candidate profiles imply: each touched mode's slot is recomputed from
// the cached per-channel minima (candidate values for the touched
// channels), untouched modes keep their slots. It also reports each
// recomputed mode's binding channel — the channel whose demand sizes
// the slot — for overflow reporting. The touched/binding results are
// fixed-size arrays indexed by mode so the per-commit cost is
// allocation-free. Caller holds commitMu and the touched channels'
// locks.
func (m *Manager) candidateLocked(touched []touchedChannel) (next core.Config, reshaped [task.NumModes]bool, binding [task.NumModes]int) {
	// Under commitMu the current record cannot be retired or rewritten
	// (both only happen under commitMu), so reading it directly — no
	// acquire/release — is safe for writers.
	next = m.cur.Load().cfg
	for _, tc := range touched {
		reshaped[tc.st.mode] = true
	}
	for _, mode := range task.Modes() {
		if !reshaped[mode] {
			continue
		}
		worst, bind := 0.0, 0
		for ch, st := range m.channels[mode] {
			q := st.minq
			for _, tc := range touched {
				if tc.st == st {
					q = tc.minq
					break
				}
			}
			if q > worst {
				worst, bind = q, ch
			}
		}
		next.Q = next.Q.With(mode, worst+m.over.Of(mode))
		binding[mode] = bind
	}
	return next, reshaped, binding
}

// fits reports whether the candidate slots fit the unrevoked capacity.
func (m *Manager) fits(next core.Config, revoked float64) bool {
	return next.Q.Total() <= m.p-revoked+core.SlotFitTol
}

// delta is one reconfiguration's change to the published sets:
//
//   - join enters the live set, appended in order: admitted tasks, or
//     parked ones readmitted;
//   - leave leaves the live set, located by the publication sequence
//     numbers in their registry entries; with park set the leavers are
//     evicted and appended to the parked list in order;
//   - unpark leaves the parked list: removed tasks, or the readmitted
//     ones of join.
//
// revoked is the capacity withdrawn once it is published.
type delta struct {
	join    task.Set
	leave   task.Set
	park    bool
	unpark  task.Set
	revoked float64
}

// commit is the decide-and-swap step of the all-or-nothing batches,
// serialised on commitMu: recompute the touched modes' slots from the
// cached per-channel minima (fresh values for the touched channels),
// check the slot total against the available capacity, and — on
// acceptance — publish d with the new configuration. The caller holds
// the touched channels' locks and undoes its patches on an error.
func (m *Manager) commit(sc *opScratch, d delta) error {
	mt := m.met.Load()
	var t0 time.Time
	if mt != nil {
		t0 = time.Now()
	}
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	if mt != nil {
		defer mt.CommitLatency.ObserveSince(t0)
	}
	old := m.cur.Load()
	next, reshaped, binding := m.candidateLocked(sc.touched)
	if !m.fits(next, old.revoked) {
		return m.rejectOverflow(next, reshaped, binding, old.revoked, d.join)
	}
	// Structural sanity before switching. The schedulability of the new
	// configuration follows from the compiled inversion itself: each
	// touched slot covers max_i minQ of its mode's channels, the profiles
	// are property-tested bit-identical to the theorem oracle, and
	// untouched modes keep their task sets, slots and therefore their
	// (α, Δ) guarantees. The theorem-level re-check stays available as
	// Verify.
	if err := next.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrRejected, err)
	}
	d.revoked = old.revoked
	m.publishLocked(sc.touched, d, next, old)
	return nil
}

// publishLocked is the one publication of every reconfiguration: it
// installs the touched shards' profiles and minima, then publishes
// configuration next with old's live and parked sets changed by d, and
// updates the name registry. The new state is built directly into a
// recycled snapshot record (see nextSnapLocked), so the steady-state
// publication reuses its slice backings and allocates nothing. The
// live set is the current one minus the leavers, located by binary
// search on their sequence numbers and cut out between bulk copies of
// the survivors, plus the joiners in order, numbered from nextSeq up.
// Caller holds commitMu and the touched channels' locks; old is the
// current record.
func (m *Manager) publishLocked(touched []touchedChannel, d delta, next core.Config, old *snapshot) {
	m.installProfiles(touched)
	cur := m.seqs[m.seqCur]
	gone := m.gone[:0]
	// One rule covers the registry: an entry is freed iff its task ends
	// neither live nor parked. A readmitted task keeps the pending mark
	// of a removal in flight; a newly admitted one leaves its
	// reservation. The registry may change before the record below is
	// published: an operation acting on a changed entry needs a channel
	// lock or commitMu to publish, and the caller holds both.
	m.nameMu.Lock()
	for _, t := range d.leave {
		e := m.names[t.Name]
		p, ok := slices.BinarySearch(cur, e.seq)
		if !ok {
			panic("online: a leaving task is missing from the published live set")
		}
		gone = append(gone, p)
		if d.park {
			e.parked = true
		} else {
			m.freeEntryLocked(t.Name, e)
		}
	}
	for i, t := range d.join {
		e := m.names[t.Name]
		e.pending = e.pending && e.parked
		e.parked, e.seq = false, m.nextSeq+uint64(i)
	}
	for _, t := range d.unpark {
		if e := m.names[t.Name]; e.parked {
			m.freeEntryLocked(t.Name, e)
		}
	}
	m.nameMu.Unlock()
	slices.Sort(gone)
	m.gone = gone
	s := m.nextSnapLocked()
	s.cfg = next
	n := len(old.live) - len(gone) + len(d.join)
	live, seqs := sized(s.live, n), sized(m.seqs[1-m.seqCur], n)
	lo := 0
	for _, p := range gone {
		live, seqs = append(live, old.live[lo:p]...), append(seqs, cur[lo:p]...)
		lo = p + 1
	}
	live, seqs = append(live, old.live[lo:]...), append(seqs, cur[lo:]...)
	s.live = append(live, d.join...)
	for range d.join {
		seqs = append(seqs, m.nextSeq)
		m.nextSeq++
	}
	m.seqCur = 1 - m.seqCur
	m.seqs[m.seqCur] = seqs
	s.revoked = d.revoked
	parked := s.parked[:0]
	for _, t := range old.parked {
		if _, out := d.unpark.Find(t.Name); !out {
			parked = append(parked, t)
		}
	}
	if d.park {
		parked = append(parked, d.leave...)
	}
	s.parked = parked
	m.cur.Store(s)
	m.setStateGauges(s)
}

// rejectOverflow builds the typed rejection for candidate slots that do
// not fit: the slot overflows plus a verdict for every batch member of
// the all-or-nothing batch.
func (m *Manager) rejectOverflow(next core.Config, reshaped [task.NumModes]bool, binding [task.NumModes]int, revoked float64, batch task.Set) error {
	rej := &Rejection{Overflows: m.slotOverflows(next, reshaped, binding, revoked)}
	for _, t := range batch {
		rej.Verdicts = append(rej.Verdicts, TaskVerdict{Task: t, Code: VerdictRejected, Detail: "all-or-nothing batch did not fit"})
	}
	return rej
}

// slotOverflows describes candidate slots that do not fit: for each
// reshaped mode, the slot it asked for next to the actual maximum the
// available capacity could give it — the capacity minus the slots held
// by the other modes (admissible within core.SlotFitTol) — and the
// binding channel.
func (m *Manager) slotOverflows(next core.Config, reshaped [task.NumModes]bool, binding [task.NumModes]int, revoked float64) []SlotOverflow {
	var out []SlotOverflow
	for _, mode := range task.Modes() {
		if !reshaped[mode] {
			continue
		}
		need := next.Q.Of(mode)
		out = append(out, SlotOverflow{
			Mode:      mode,
			Channel:   binding[mode],
			Requested: need,
			Max:       m.p - revoked - (next.Q.Total() - need),
			Period:    m.p,
			Revoked:   revoked,
		})
	}
	return out
}

// installProfiles commits each touched shard's candidate minimum and
// folds the accumulated patch counters (the profiles themselves were
// already patched in place under the channel locks, and each patch
// that fell back was reported then, by noteFallback). Each patched
// channel's memory ratio is written to the EnvelopeMemRatio gauge. The
// caller holds the channel locks (and, on batch paths, commitMu).
func (m *Manager) installProfiles(touched []touchedChannel) {
	mt := m.met.Load()
	for _, tc := range touched {
		if tc.patched && mt != nil {
			mt.EnvelopeMemRatio.Set(tc.st.prof.MemStats().Ratio())
		}
		tc.st.minq = tc.minq
		tc.st.patches += tc.patches
		if mt != nil && tc.patches > 0 {
			mt.EnvelopePatches.Add(uint64(tc.patches))
		}
	}
}

// CheckProfiles audits every channel's compiled profile against the
// full-compile oracle (analysis.Profile.Check): a bitwise comparison of
// the retained stream, owner counts, demand row and pruned pairs
// against a fresh Compile. Full recompilation cost, one
// channel lock at a time — a quiescent-point audit for harnesses
// (internal/chaos), not a per-reshape check.
func (m *Manager) CheckProfiles() error {
	for _, mode := range task.Modes() {
		for ch, st := range m.channels[mode] {
			st.mu.Lock()
			err := st.prof.Check()
			st.mu.Unlock()
			if err != nil {
				return fmt.Errorf("online: channel %v/%d: %w", mode, ch, err)
			}
		}
	}
	return nil
}
