// Package sim executes platform configurations on a model of the
// paper's 4-core lock-step platform: a discrete-event simulation of the
// slot cycle (mode switches with overheads, Figure 2), per-channel
// preemptive RM/DM/EDF scheduling, and transient-fault injection with
// the checker semantics of internal/platform (FT masks, FS silences,
// NF corrupts).
//
// One executor runs every simulation. It takes the horizon split into
// epochs — spans with a fixed slot layout, at whose boundaries tasks
// join and leave — and one fault schedule, and runs one engine per
// channel across the epochs, re-provisioning it at each boundary with
// in-flight jobs carried over. Two entry points feed it:
//
//   - Replay executes a Scenario — a timeline of workload events
//     (admissions, removals, capacity revocations and restores) applied
//     to a live online.Manager — and validates the executable analogue
//     of the admission guarantees: every task the manager admits meets
//     every deadline released during its residency, across reshapes.
//
//   - Simulator.Run is the one-epoch case: a static configuration over
//     a horizon, the executable validation of a single design. A
//     configuration that internal/core proves feasible must complete
//     every job by its deadline here, under any single-transient-fault
//     schedule.
//
// Time is integer ticks (internal/timeu) so runs are exact and
// reproducible. Window boundaries derived from the float64 analysis are
// rounded in the direction that can only widen the supply, so rounding
// can never manufacture a deadline miss.
//
// Channels never interact — partitioned scheduling, independent tasks —
// so each channel is simulated independently; with Options.Parallel the
// seven channels (1 FT + 2 FS + 4 NF) run on separate goroutines and
// the merged result is still deterministic.
//
// The channel engines are pooled across runs: a warm run reuses their
// window buffers, heaps, task registry and job records instead of
// building them anew, and nothing it returns aliases them, so its
// allocations do not grow with the horizon.
package sim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/trace"
)

// Job is one activation of a task inside the simulator.
type Job struct {
	TaskName  string
	TaskIndex int // index in the channel's task registry
	Release   timeu.Ticks
	Deadline  timeu.Ticks // absolute
	Total     timeu.Ticks // worst-case computation time
	Remaining timeu.Ticks
	Corrupted bool // executed through an NF-mode fault
	Backup    bool // re-issued by a recovery policy
	seq       uint64
	heapIndex int
}

// Recovery decides what happens to a job killed by a fail-silent
// channel shutdown. Implementations live in internal/recovery.
type Recovery interface {
	// OnAbort receives the aborted job and the abort instant. Returning
	// ok = true re-enqueues the (possibly modified) job on the same
	// channel.
	OnAbort(j Job, now timeu.Ticks) (Job, bool)
}

// Options configure a run.
type Options struct {
	// Horizon is the simulated duration. Zero means one hyperperiod of
	// the task set.
	Horizon timeu.Ticks
	// Injector supplies the fault schedule; nil means no faults.
	Injector faults.Injector
	// Recovery handles jobs aborted on silenced FS channels; nil drops
	// them.
	Recovery Recovery
	// CollectTrace records events and execution segments in the result.
	CollectTrace bool
	// MaxTraceEvents bounds the retained trace when CollectTrace is set:
	// at most this many events and this many segments are kept (the
	// earliest ones), and the result's Trace reports the truncation in
	// DroppedEvents/DroppedSegments. Zero keeps everything — a
	// million-tick run then retains a log proportional to its length.
	MaxTraceEvents int
	// Parallel simulates the channels on separate goroutines.
	Parallel bool

	// linearReleases forces the engine's O(n)-scan release path instead
	// of the release heap; white-box tests use it as the bit-identity
	// oracle for the heap.
	linearReleases bool
}

// newEngineLog returns the per-engine trace log for these options.
func (o Options) newEngineLog() *trace.Log {
	if !o.CollectTrace {
		return nil
	}
	l := &trace.Log{}
	if o.MaxTraceEvents > 0 {
		l.MaxEvents, l.MaxSegments = o.MaxTraceEvents, o.MaxTraceEvents
	}
	return l
}

// finishTrace sorts the merged trace and enforces the global bound.
func (o Options) finishTrace(l *trace.Log) {
	if l == nil {
		return
	}
	l.Sort()
	if o.MaxTraceEvents > 0 {
		l.Truncate(o.MaxTraceEvents, o.MaxTraceEvents)
	}
}

// Simulator binds a platform time structure to a task set and an
// algorithm.
type Simulator struct {
	spec  windowSpec
	tasks task.Set
	alg   analysis.Alg
}

// New validates the inputs and builds a Simulator for a single-slot
// configuration.
func New(cfg core.Config, tasks task.Set, alg analysis.Alg) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newWithSpec(specFromConfig(cfg), tasks, alg)
}

// NewWindows builds a Simulator from an explicit periodic window
// structure: per-mode usable service intervals and overhead intervals,
// given as float64 offsets within one period of length p. It is the
// entry point for multi-quantum layouts (internal/layout); usable
// window starts are rounded down and ends up, like New's.
func NewWindows(p float64, usable, overhead map[task.Mode][][2]float64, tasks task.Set, alg analysis.Alg) (*Simulator, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sim: period %g must be positive", p)
	}
	spec := windowSpec{period: timeu.FromUnits(p)}
	convert := func(src [][2]float64, widen bool) ([]interval, error) {
		var out []interval
		for _, w := range src {
			if w[0] < 0 || w[1] > p+1e-9 || w[0] >= w[1] {
				return nil, fmt.Errorf("sim: window [%g, %g) invalid for period %g", w[0], w[1], p)
			}
			var iv interval
			if widen {
				iv = interval{From: timeu.FromUnitsDown(w[0]), To: timeu.FromUnitsUp(w[1])}
			} else {
				iv = interval{From: timeu.FromUnitsDown(w[0]), To: timeu.FromUnitsDown(w[1])}
			}
			if iv.To > spec.period {
				iv.To = spec.period
			}
			if iv.length() > 0 {
				out = append(out, iv)
			}
		}
		sortIntervals(out)
		return out, nil
	}
	for _, m := range task.Modes() {
		u, err := convert(usable[m], true)
		if err != nil {
			return nil, err
		}
		o, err := convert(overhead[m], false)
		if err != nil {
			return nil, err
		}
		spec.usable[m], spec.overhead[m] = u, o
	}
	return newWithSpec(spec, tasks, alg)
}

func newWithSpec(spec windowSpec, tasks task.Set, alg analysis.Alg) (*Simulator, error) {
	if err := tasks.Validate(); err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, task.ErrEmptySet
	}
	if alg != analysis.RM && alg != analysis.DM && alg != analysis.EDF {
		return nil, fmt.Errorf("sim: unsupported algorithm %v", alg)
	}
	if spec.period <= 0 {
		return nil, fmt.Errorf("sim: period of %d ticks is degenerate", spec.period)
	}
	return &Simulator{spec: spec, tasks: tasks, alg: alg}, nil
}

// Run simulates [0, horizon) and returns the aggregated result: the
// one-epoch case of the executor, with the whole task set joining at 0
// on a slot layout that never changes.
func (s *Simulator) Run(opts Options) (*Result, error) {
	horizon, err := runHorizon(opts.Horizon, s.tasks)
	if err != nil {
		return nil, err
	}
	schedule, err := faultSchedule(opts.Injector, horizon)
	if err != nil {
		return nil, err
	}
	res, _, err := execute(s.alg, []epoch{{from: 0, to: horizon, spec: s.spec, joins: s.tasks}}, horizon, schedule, opts, false)
	if err != nil {
		return nil, err
	}
	opts.finishTrace(res.Trace)
	return res, nil
}

// runHorizon resolves Options.Horizon: zero means one hyperperiod of
// the tasks resident at time 0.
func runHorizon(horizon timeu.Ticks, initial task.Set) (timeu.Ticks, error) {
	if horizon == 0 {
		if len(initial) == 0 {
			return 0, fmt.Errorf("sim: empty initial task set needs an explicit Options.Horizon")
		}
		h, err := initial.Hyperperiod(analysis.HyperperiodDenominator)
		if err != nil {
			return 0, fmt.Errorf("sim: cannot derive default horizon: %w", err)
		}
		horizon = timeu.FromUnits(h)
	}
	if horizon <= 0 {
		return 0, fmt.Errorf("sim: horizon %d must be positive", horizon)
	}
	return horizon, nil
}

// faultSchedule draws the faults over [0, horizon); a nil injector
// means none. The built-in injectors validate by construction, but a
// custom Injector could hand back overlapping faults or out-of-range
// cores, and the engine's fault handling assumes neither.
func faultSchedule(inj faults.Injector, horizon timeu.Ticks) ([]faults.Fault, error) {
	if inj == nil {
		return nil, nil
	}
	schedule, err := inj.Schedule(horizon)
	if err == nil {
		err = faults.ValidateSingleFaultOn(schedule, 0, platform.NumCores)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: fault schedule: %w", err)
	}
	return schedule, nil
}

// epoch is one provisioning span [from, to) with a fixed slot layout;
// joins and leaves are the tasks that enter and exit at from.
type epoch struct {
	from, to timeu.Ticks
	spec     windowSpec
	joins    task.Set
	leaves   task.Set
}

// execute runs alg over the epochs, which tile [0, horizon), under one
// fault schedule. Every channel that some epoch joins a task to gets
// one engine from the pool, provisioned at each epoch boundary and run
// to the next; the engines run in turn or, with opts.Parallel, on
// goroutines. execute merges their results in canonical channel order,
// accounts platform time and faults over the epochs and returns the
// engines to the pool. The merged trace is not yet finished
// (opts.finishTrace), so a caller can add its own events first. With
// residencies set, every channel's residencies are returned too, in
// the same order, for Replay to report.
func execute(alg analysis.Alg, epochs []epoch, horizon timeu.Ticks, schedule []faults.Fault, opts Options, residencies bool) (*Result, []Residency, error) {
	n := 0
	for _, ep := range epochs {
		n += len(ep.joins)
	}
	ids := make([]ChannelID, 0, n)
	for _, ep := range epochs {
		for _, t := range ep.joins {
			ids = append(ids, ChannelID{Mode: t.Mode, Ch: t.Channel})
		}
	}
	slices.SortFunc(ids, func(a, b ChannelID) int {
		return cmp.Or(cmp.Compare(a.Mode, b.Mode), cmp.Compare(a.Ch, b.Ch))
	})
	ids = slices.Compact(ids)

	runOne := func(id ChannelID) (*engine, error) {
		eng := getEngine(id, alg, horizon, epochs[0].spec.period, opts)
		for i, ep := range epochs {
			svc := eng.serviceFor(ep.spec, schedule, ep.from, ep.to)
			corrupt := eng.corruptFor(ep.spec, schedule, ep.from, ep.to)
			eng.leaveBuf = appendChannel(eng.leaveBuf[:0], ep.leaves, id)
			eng.joinBuf = appendChannel(eng.joinBuf[:0], ep.joins, id)
			// A reshape perturbs this channel when the mode's new
			// windows do not cover the old ones: pure growth keeps every
			// old-epoch supply instant, shrinks and shifts do not.
			perturbed := i > 0 && !coversOffsets(epochs[i-1].spec.usable[id.Mode], ep.spec.usable[id.Mode])
			err := eng.provision(ep.from, svc, corrupt, eng.leaveBuf, eng.joinBuf, perturbed)
			if err == nil {
				err = eng.runUntil(ep.to)
			}
			if err != nil {
				putEngine(eng)
				return nil, err
			}
		}
		eng.finish()
		return eng, nil
	}
	engines, err := runChannels(ids, opts.Parallel, runOne)
	if err != nil {
		return nil, nil, err
	}

	n = 0
	for _, eng := range engines {
		n += len(eng.stats.residencies)
	}
	res := newResult(horizon, len(engines), n, opts.CollectTrace)
	var kept []Residency
	if residencies && n > 0 {
		kept = make([]Residency, 0, n)
	}
	slots := make([]ChannelStats, len(engines))
	for i, eng := range engines {
		res.merge(&eng.stats, &slots[i])
		if residencies {
			kept = append(kept, eng.stats.residencies...)
		}
		putEngine(eng)
	}
	res.accountFaults(schedule, epochs)
	res.accountPlatform(epochs, horizon)
	res.TotalFaults = len(schedule)
	return res, kept, nil
}

// appendChannel appends to dst the tasks of s on channel id, in set
// order: task.Set.ByChannel into a buffer the caller reuses.
func appendChannel(dst, s task.Set, id ChannelID) task.Set {
	for _, t := range s {
		if t.Mode == id.Mode && t.Channel == id.Ch {
			dst = append(dst, t)
		}
	}
	return dst
}

// runChannels runs one engine per channel, sequentially or on
// goroutines, and returns the finished engines in the canonical channel
// order. On an error every engine already taken goes back to the pool.
func runChannels(ids []ChannelID, parallel bool, runOne func(ChannelID) (*engine, error)) ([]*engine, error) {
	engines := make([]*engine, len(ids))
	var err error
	if !parallel {
		for i, id := range ids {
			if engines[i], err = runOne(id); err != nil {
				break
			}
		}
	} else {
		errs := make([]error, len(ids))
		done := make(chan int, len(ids))
		for i := range ids {
			go func(i int) {
				engines[i], errs[i] = runOne(ids[i])
				done <- i
			}(i)
		}
		for range ids {
			<-done
		}
		for _, err = range errs {
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		for _, eng := range engines {
			if eng != nil {
				putEngine(eng)
			}
		}
		return nil, err
	}
	return engines, nil
}

// coversOffsets reports whether every old per-period window is
// contained in some new window — the condition under which a reshape
// can only add supply to the channel and carried jobs keep their
// old-epoch guarantee.
func coversOffsets(old, new []interval) bool {
	for _, o := range old {
		contained := false
		for _, n := range new {
			if n.From <= o.From && o.To <= n.To {
				contained = true
				break
			}
		}
		if !contained {
			return false
		}
	}
	return true
}

// ChannelID names one execution channel of one mode.
type ChannelID struct {
	Mode task.Mode
	Ch   int
}

// String renders "FS/1"-style identifiers.
func (id ChannelID) String() string { return fmt.Sprintf("%s/%d", id.Mode, id.Ch) }

// interval is a half-open tick range [From, To).
type interval struct {
	From, To timeu.Ticks
}

func (iv interval) length() timeu.Ticks { return iv.To - iv.From }

// intersects reports whether [a, b) overlaps iv.
func (iv interval) intersects(a, b timeu.Ticks) bool { return iv.From < b && a < iv.To }

// sortIntervals orders intervals by start time. slices.SortFunc keeps
// the hot window paths free of sort.Slice's reflection-based swapper.
func sortIntervals(ivs []interval) {
	slices.SortFunc(ivs, func(a, b interval) int {
		switch {
		case a.From < b.From:
			return -1
		case a.From > b.From:
			return 1
		}
		return 0
	})
}
