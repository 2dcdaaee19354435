package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/trace"
)

// EventKind discriminates the workload events a Scenario can replay
// against an online.Manager.
type EventKind int

const (
	// EventAdmit calls Manager.AdmitBatch: all-or-nothing admission.
	EventAdmit EventKind = iota
	// EventAdmitPartial calls Manager.AdmitBatchPartial with the
	// scenario's Policy: admit what fits, shed the rest.
	EventAdmitPartial
	// EventRemove calls Manager.RemoveBatch on the event's Names.
	EventRemove
	// EventRevoke calls Manager.Revoke: withdraw Capacity time units
	// from the period, evicting low-value tasks if the survivors no
	// longer fit.
	EventRevoke
	// EventRestore calls Manager.Restore: hand Capacity time units
	// back, readmitting parked tasks that fit again.
	EventRestore
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventAdmit:
		return "admit"
	case EventAdmitPartial:
		return "admit-partial"
	case EventRemove:
		return "remove"
	case EventRevoke:
		return "revoke"
	case EventRestore:
		return "restore"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// WorkloadEvent is one workload change at a simulated instant. The
// operation runs against the manager immediately (its admission test is
// instantaneous), but its effect on the executing platform follows the
// paper's mode-change rule: the new slot layout is installed at the
// next slot-cycle boundary, and newly admitted tasks release their
// first jobs one settling period after that (see ScenarioOptions).
type WorkloadEvent struct {
	// At is the simulated instant the request arrives, in ticks ≥ 0.
	At timeu.Ticks
	// Kind selects the manager operation.
	Kind EventKind
	// Tasks is the batch for EventAdmit / EventAdmitPartial.
	Tasks task.Set
	// Names is the removal list for EventRemove.
	Names []string
	// Capacity is the time-unit amount for EventRevoke / EventRestore.
	Capacity float64
}

// Scenario is a timeline of workload events. Replay sorts them by At
// (stably, so same-instant events keep their listed order).
type Scenario struct {
	Events []WorkloadEvent
}

// ScenarioOptions extends the static simulation options with
// scenario-specific knobs.
type ScenarioOptions struct {
	Options
	// Policy is the value policy for EventAdmitPartial, EventRevoke and
	// EventRestore. The zero value treats every task as equally
	// valuable.
	Policy online.Policy
	// Metrics, when non-nil, receives the run's tallies after the
	// horizon executes: events submitted/accepted, epochs, reshapes,
	// job outcomes, and replay wall time. The replay loop itself is not
	// instrumented — population is a single pass over the finished
	// result.
	Metrics *Metrics
	// SettlePeriods delays a newly admitted task's first release this
	// many slot-cycle periods past the boundary at which its slots were
	// grown. Growing a slot shifts later slots within the same period,
	// so jobs already in flight there can transiently see less supply
	// than either the old or the new analysis promises; one settling
	// period lets the cycle re-form before the newcomer adds demand.
	// Zero means the default of 1; negative means no settling (joins
	// take effect right at the boundary — useful for tests that want
	// the sharpest possible transitions).
	SettlePeriods int
}

func (o ScenarioOptions) settlePeriods() int {
	if o.SettlePeriods == 0 {
		return 1
	}
	if o.SettlePeriods < 0 {
		return 0
	}
	return o.SettlePeriods
}

// EventOutcome records how one workload event went.
type EventOutcome struct {
	// Event is the input event (after sorting).
	Event WorkloadEvent
	// Err is the manager's verdict; a rejected admission or a failed
	// removal is a recorded outcome, not a replay failure.
	Err error
	// EffectiveAt is when the event's accepted effect reaches the
	// executing platform: the next slot-cycle boundary for removals,
	// evictions and capacity changes, plus the settling delay for
	// admissions. Zero-effect events (rejections) keep the boundary
	// instant for reference.
	EffectiveAt timeu.Ticks
	// Joined and Left name the tasks this event added to / removed from
	// the live set (including evictions by Revoke and readmissions by
	// Restore).
	Joined, Left []string
}

// ScenarioResult is the outcome of a scenario replay.
type ScenarioResult struct {
	Result
	// Epochs is the number of distinct provisioning epochs the horizon
	// was split into (1 = no effective reshape).
	Epochs int
	// Outcomes records each event's manager verdict and effect, in
	// replay order.
	Outcomes []EventOutcome
	// Residencies lists every task tenure on every channel — the unit
	// the headline invariant quantifies over: an admitted task must
	// miss no deadline released within its residency. Sorted by start
	// time, then mode, channel and name.
	Residencies []Residency
}

// memberOp is one scheduled membership change on the executing platform.
type memberOp struct {
	at        timeu.Ticks
	t         task.Task
	join      bool
	cancelled bool
}

// Replay executes the scenario against the manager and simulates the
// resulting platform schedule over the horizon.
//
// The manager is the admission authority: every event is submitted to
// it (with the simulated clock set to the event's instant) and its
// accept/reject verdicts are taken as ground truth. The live-set
// transitions it publishes are then compiled into epochs — spans with a
// fixed slot layout and task membership — and each channel's engine is
// re-provisioned at every epoch boundary, carrying in-flight jobs
// across the reshape.
//
// The manager is left in whatever state the last event produced; pass a
// dedicated manager if the caller needs to keep its own.
func Replay(m *online.Manager, sc Scenario, opts ScenarioOptions) (*ScenarioResult, error) {
	if m == nil {
		return nil, fmt.Errorf("sim: Replay needs a manager")
	}
	var wall0 time.Time
	if opts.Metrics != nil {
		wall0 = time.Now()
	}
	alg := m.Alg()
	cfg0 := m.Config()
	period := timeu.FromUnits(cfg0.P)
	if period <= 0 {
		return nil, fmt.Errorf("sim: manager period %g is degenerate in ticks", cfg0.P)
	}
	initial := m.Tasks()

	horizon, err := runHorizon(opts.Horizon, initial)
	if err != nil {
		return nil, err
	}
	settle := period * timeu.Ticks(opts.settlePeriods())

	events := append([]WorkloadEvent(nil), sc.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, ev := range events {
		if ev.At < 0 {
			return nil, fmt.Errorf("sim: event %v at negative instant %s", ev.Kind, ev.At)
		}
		if ev.Kind < EventAdmit || ev.Kind > EventRestore {
			return nil, fmt.Errorf("sim: unknown event kind %d", int(ev.Kind))
		}
	}

	schedule, err := faultSchedule(opts.Injector, horizon)
	if err != nil {
		return nil, err
	}

	// nextBoundary is the first slot-cycle boundary at or after t. The
	// manager's period is immutable, so every boundary is a multiple of
	// it regardless of how often the slots inside reshape.
	nextBoundary := func(t timeu.Ticks) timeu.Ticks {
		return (t + period - 1) / period * period
	}

	// ---- Phase 1: drive the manager through the timeline. ----

	var sunk []online.Event
	m.SetEventSink(func(ev online.Event) { sunk = append(sunk, ev) })
	defer m.SetEventSink(nil)

	// Config is a value type of plain floats, so == compares layouts
	// exactly and a boundary whose config matches the previous epoch's
	// (with no membership delta) needs no reshape.
	type cfgChange struct {
		at  timeu.Ticks
		cfg core.Config
	}
	var (
		outcomes []EventOutcome
		ops      []*memberOp
		cfgTl    []cfgChange
		pending  = map[string]*memberOp{} // named joins not yet effective
	)
	prev := initial
	for _, ev := range events {
		m.SetNow(ev.At)
		var opErr error
		switch ev.Kind {
		case EventAdmit:
			opErr = m.AdmitBatch(ev.Tasks)
		case EventAdmitPartial:
			var rep *online.AdmitReport
			rep, opErr = m.AdmitBatchPartial(ev.Tasks, opts.Policy)
			if opErr == nil && rep != nil {
				opErr = rep.Err()
			}
		case EventRemove:
			opErr = m.RemoveBatch(ev.Names)
		case EventRevoke:
			_, opErr = m.Revoke(ev.Capacity, opts.Policy)
		case EventRestore:
			_, opErr = m.Restore(ev.Capacity, opts.Policy)
		}
		cur := m.Tasks()
		joined, left := diffByName(prev, cur)
		prev = cur

		eff := nextBoundary(ev.At)
		out := EventOutcome{Event: ev, Err: opErr, EffectiveAt: eff}
		for _, t := range left {
			out.Left = append(out.Left, t.Name)
			if p, ok := pending[t.Name]; ok && eff <= p.at {
				// The task leaves before its delayed first release: the
				// join never reaches the platform, so neither does the
				// leave.
				p.cancelled = true
				delete(pending, t.Name)
				continue
			}
			delete(pending, t.Name)
			ops = append(ops, &memberOp{at: eff, t: t})
		}
		for _, t := range joined {
			out.Joined = append(out.Joined, t.Name)
			op := &memberOp{at: eff + settle, t: t, join: true}
			ops = append(ops, op)
			if t.Name != "" {
				pending[t.Name] = op
			}
		}
		if len(out.Joined) > 0 {
			out.EffectiveAt = eff + settle
		}
		outcomes = append(outcomes, out)
		// The slot layout itself swaps at the boundary, even for joins:
		// growing the slots early is safe, adding demand early is not.
		cfgTl = append(cfgTl, cfgChange{at: eff, cfg: m.Config()})
	}

	// ---- Compile the timeline into epochs. ----

	type delta struct{ joins, leaves task.Set }
	deltas := map[timeu.Ticks]*delta{}
	boundarySet := map[timeu.Ticks]bool{0: true}
	for _, op := range ops {
		if op.cancelled || op.at >= horizon {
			continue
		}
		d := deltas[op.at]
		if d == nil {
			d = &delta{}
			deltas[op.at] = d
		}
		if op.join {
			d.joins = append(d.joins, op.t)
		} else {
			d.leaves = append(d.leaves, op.t)
		}
		boundarySet[op.at] = true
	}
	for _, c := range cfgTl {
		if c.at < horizon {
			boundarySet[c.at] = true
		}
	}
	boundaries := make([]timeu.Ticks, 0, len(boundarySet))
	for b := range boundarySet {
		boundaries = append(boundaries, b)
	}
	sort.Slice(boundaries, func(i, j int) bool { return boundaries[i] < boundaries[j] })

	cfgAt := func(b timeu.Ticks) core.Config {
		cfg := cfg0
		for _, c := range cfgTl {
			if c.at <= b {
				cfg = c.cfg
			}
		}
		return cfg
	}

	var epochs []epoch
	lastCfg := cfg0
	for _, b := range boundaries {
		cfg := cfgAt(b)
		d := deltas[b]
		if b != 0 && cfg == lastCfg && d == nil {
			continue // nothing changed at this boundary
		}
		ep := epoch{from: b, spec: specFromConfig(cfg)}
		if d != nil {
			ep.joins, ep.leaves = d.joins, d.leaves
		}
		if b == 0 {
			// The initial residents join at 0 — unless a same-instant
			// removal already took them out.
			init := initial
			if len(ep.leaves) > 0 {
				gone := map[string]bool{}
				for _, t := range ep.leaves {
					gone[t.Name] = true
				}
				init = nil
				for _, t := range initial {
					if t.Name == "" || !gone[t.Name] {
						init = append(init, t)
					}
				}
				ep.leaves = nil // they were never resident
			}
			ep.joins = append(append(task.Set(nil), init...), ep.joins...)
		}
		if len(epochs) > 0 {
			epochs[len(epochs)-1].to = b
		}
		epochs = append(epochs, ep)
		lastCfg = cfg
	}
	epochs[len(epochs)-1].to = horizon

	// ---- Phase 2: execute the epochs; list residencies and the driver's trace. ----

	r, channels, err := execute(alg, epochs, horizon, schedule, opts.Options)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{Result: *r, Epochs: len(epochs), Outcomes: outcomes}
	for _, cr := range channels {
		res.Residencies = append(res.Residencies, cr.residencies...)
	}
	slices.SortStableFunc(res.Residencies, func(a, b Residency) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Task.Mode, b.Task.Mode),
			cmp.Compare(a.Task.Channel, b.Task.Channel), strings.Compare(a.Task.Name, b.Task.Name))
	})
	if res.Trace != nil {
		for _, ev := range sunk {
			res.Trace.Add(trace.Event{At: ev.At, Kind: ev.Kind, Mode: ev.Mode, Channel: ev.Channel, Core: -1,
				Detail: strings.Join(ev.Tasks, ",")})
		}
		for _, out := range outcomes {
			if len(out.Joined) > 0 {
				res.Trace.Add(trace.Event{At: out.EffectiveAt, Kind: trace.Admitted, Core: -1,
					Detail: strings.Join(out.Joined, ",")})
			}
			if len(out.Left) > 0 {
				res.Trace.Add(trace.Event{At: nextBoundary(out.Event.At), Kind: trace.Removed, Core: -1,
					Detail: strings.Join(out.Left, ",")})
			}
		}
		for _, ep := range epochs[1:] {
			res.Trace.Add(trace.Event{At: ep.from, Kind: trace.Reshape, Core: -1})
		}
	}
	opts.finishTrace(res.Trace)
	if opts.Metrics != nil {
		opts.Metrics.observeReplay(res, uint64(time.Since(wall0)))
	}
	return res, nil
}

// diffByName compares two live sets by task name, reporting tasks that
// joined (present only in cur, or present in both with changed
// parameters) and left (present only in prev, or changed — a parameter
// change is a leave plus a join, closing one residency and opening
// another). Unnamed tasks are permanent residents: the manager cannot
// remove them, so they never diff.
func diffByName(prev, cur task.Set) (joined, left task.Set) {
	// Events touch few tasks, so the two live sets almost always share a
	// long unchanged prefix and suffix. Names are unique within a live
	// set, so an element equal in both (same name included) can appear
	// nowhere else in either set and contributes nothing to the diff —
	// trimming it is exact, and the name-map pass runs only over the
	// changed middle.
	for len(prev) > 0 && len(cur) > 0 && prev[0] == cur[0] {
		prev, cur = prev[1:], cur[1:]
	}
	for len(prev) > 0 && len(cur) > 0 && prev[len(prev)-1] == cur[len(cur)-1] {
		prev, cur = prev[:len(prev)-1], cur[:len(cur)-1]
	}
	if len(prev) == 0 && len(cur) == 0 {
		return nil, nil
	}
	pm := make(map[string]task.Task, len(prev))
	for _, t := range prev {
		if t.Name != "" {
			pm[t.Name] = t
		}
	}
	for _, t := range cur {
		if t.Name == "" {
			continue
		}
		old, ok := pm[t.Name]
		if ok && old == t {
			delete(pm, t.Name)
			continue
		}
		if ok {
			left = append(left, old)
			delete(pm, t.Name)
		}
		joined = append(joined, t)
	}
	// Anything still in pm vanished. Map iteration is unordered, so
	// restore prev's order for determinism.
	if len(pm) > 0 {
		for _, t := range prev {
			if old, ok := pm[t.Name]; ok && t.Name != "" && old == t {
				left = append(left, t)
			}
		}
	}
	return joined, left
}
