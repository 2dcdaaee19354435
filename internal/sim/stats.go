package sim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/trace"
)

// TaskStats aggregates the fate of one task's jobs.
type TaskStats struct {
	Released  int
	Completed int
	// Missed counts jobs finishing after their deadline plus jobs still
	// unfinished — at the horizon or at the task's departure — whose
	// deadline lies inside the judged window.
	Missed int
	// Aborted counts jobs killed by fail-silent channel shutdowns.
	Aborted int
	// Recovered counts aborted jobs re-issued by the recovery policy.
	Recovered int
	// Corrupted counts completed jobs that executed through an NF fault.
	Corrupted int
	// Cancelled counts pending jobs withdrawn because the task left the
	// live set (removal or eviction) with their deadlines still ahead;
	// they are excused, not missed — the demand departed with the task.
	Cancelled int
	// TransitionLate counts jobs late by less than one slot-cycle
	// period per non-covering reshape preceding their deadline — the
	// bounded mode-change latency a slot shrink or shift imposes. The
	// displaced backlog is under one period of work per reshape, and
	// because minimal-slot configurations have zero scheduling margin
	// it persists rather than draining, so the bound is cumulative and
	// open-ended. Reported apart from Missed: the steady-state
	// guarantee is zero misses, the transition guarantee is bounded
	// lateness.
	TransitionLate int
	MaxResponse    timeu.Ticks
	SumResponse    timeu.Ticks
}

// AvgResponse returns the mean response time of completed jobs.
func (ts TaskStats) AvgResponse() timeu.Ticks {
	if ts.Completed == 0 {
		return 0
	}
	return ts.SumResponse / timeu.Ticks(ts.Completed)
}

// add folds src into ts (merging residencies of the same task name).
func (ts *TaskStats) add(src *TaskStats) {
	ts.Released += src.Released
	ts.Completed += src.Completed
	ts.Missed += src.Missed
	ts.Aborted += src.Aborted
	ts.Recovered += src.Recovered
	ts.Corrupted += src.Corrupted
	ts.Cancelled += src.Cancelled
	ts.TransitionLate += src.TransitionLate
	ts.SumResponse += src.SumResponse
	if src.MaxResponse > ts.MaxResponse {
		ts.MaxResponse = src.MaxResponse
	}
}

// Residency is one task's tenure on a channel: from its (re)admission
// to its departure or the horizon, with the stats its jobs accumulated
// in that window. A static run has exactly one residency per task over
// [0, horizon); a scenario can give the same task several, one per
// admission.
type Residency struct {
	Task     task.Task
	From, To timeu.Ticks
	Stats    *TaskStats
}

// ChannelStats aggregates one channel's execution accounting.
type ChannelStats struct {
	// Service is the total time the channel was available to tasks.
	Service timeu.Ticks
	// Busy is the time the channel actually executed jobs; Busy ≤ Service.
	Busy timeu.Ticks
	// Silenced counts fail-silent shutdowns that killed a running job.
	Silenced int
	// Corruptions counts jobs first marked corrupted on this channel.
	Corruptions int
	// TransitionLateness distributes the lateness of this channel's
	// transition-late jobs.
	TransitionLateness LatenessHistogram
}

// latenessBuckets is the histogram resolution: tenths of a slot-cycle
// period. The transition bound is one period per non-covering reshape,
// so most mass should sit in the first ten buckets; the last bucket
// collects everything at or beyond (latenessBuckets-1)/10 periods.
const latenessBuckets = 20

// LatenessHistogram distributes transition-late job lateness in units
// of the slot-cycle period — the natural scale, since the paper's
// mode-change bound is one period of displaced backlog per
// non-covering reshape. Bucket i counts jobs late by
// [i/10, (i+1)/10) periods; the final bucket is open-ended.
type LatenessHistogram struct {
	// Count is the number of transition-late jobs observed.
	Count int
	// Sum and Max aggregate the lateness in ticks.
	Sum, Max timeu.Ticks
	// Buckets holds the distribution in tenths of a period.
	Buckets [latenessBuckets]int
}

func (h *LatenessHistogram) observe(late, period timeu.Ticks) {
	h.Count++
	h.Sum += late
	if late > h.Max {
		h.Max = late
	}
	b := latenessBuckets - 1
	if period > 0 {
		if i := int(late * 10 / period); i < b {
			b = i
		}
	}
	h.Buckets[b]++
}

func (h *LatenessHistogram) merge(src *LatenessHistogram) {
	h.Count += src.Count
	h.Sum += src.Sum
	if src.Max > h.Max {
		h.Max = src.Max
	}
	for i, n := range src.Buckets {
		h.Buckets[i] += n
	}
}

// Mean returns the mean lateness of the observed jobs in ticks.
func (h *LatenessHistogram) Mean() timeu.Ticks {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / timeu.Ticks(h.Count)
}

// String renders the occupied buckets, one per line, lateness expressed
// in slot-cycle periods ("P").
func (h *LatenessHistogram) String() string {
	if h.Count == 0 {
		return "no transition-late jobs"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d transition-late jobs, mean %s, max %s", h.Count, h.Mean(), h.Max)
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if i == latenessBuckets-1 {
			fmt.Fprintf(&b, "\n  [%.1fP, ∞):  %d", float64(i)/10, n)
		} else {
			fmt.Fprintf(&b, "\n  [%.1fP, %.1fP): %d", float64(i)/10, float64(i+1)/10, n)
		}
	}
	return b.String()
}

// channelResult is the per-channel piece produced by the engine. It
// lives in the pooled engine: execute merges it before the engine goes
// back, and the residencies' Stats point into slabs allocated apart
// from the engine.
type channelResult struct {
	ChannelStats
	id          ChannelID
	residencies []Residency
	log         *trace.Log
}

// recordLate adds one transition-late observation to the channel's
// lateness histogram.
func (cr *channelResult) recordLate(late, period timeu.Ticks) {
	cr.TransitionLateness.observe(late, period)
}

// Result is the aggregated outcome of a simulation run.
type Result struct {
	Horizon timeu.Ticks
	// Tasks maps task name to its statistics (summed over the task's
	// residencies in a scenario run).
	Tasks map[string]*TaskStats
	// Channels maps each populated channel to its accounting.
	Channels map[ChannelID]*ChannelStats
	// TotalFaults is the number of injected faults.
	TotalFaults int
	// Masked counts faults whose condition overlapped FT service: the
	// redundant lock-step out-voted them.
	Masked int
	// Silenced counts fail-silent shutdowns that killed a running job.
	Silenced int
	// Corruptions counts jobs corrupted in NF mode.
	Corruptions int
	// HarmlessFaults counts faults whose condition never overlapped any
	// mode's service window (struck during overheads or slack).
	HarmlessFaults int
	// ModeService is the usable window time each mode received over the
	// horizon (per channel of that mode; all channels share the window).
	ModeService map[task.Mode]timeu.Ticks
	// OverheadTime is the total time spent in mode switches.
	OverheadTime timeu.Ticks
	// SlackTime is the horizon minus windows and overheads: the
	// unallocated region of each period (plus partial-period remainder).
	SlackTime timeu.Ticks
	// TransitionLateness distributes the lateness of transition-late
	// jobs across all channels, in tenths of a slot-cycle period. Its
	// Count equals TotalTransitionLate().
	TransitionLateness LatenessHistogram
	// Trace is non-nil when Options.CollectTrace was set. With
	// Options.MaxTraceEvents > 0 it is bounded: the earliest events and
	// segments are retained and Trace.DroppedEvents/DroppedSegments
	// count the truncation.
	Trace *trace.Log
}

// accountPlatform fills the platform-time ledger from the epochs'
// per-mode usable and overhead windows: per-mode usable service,
// overhead time, and the residual slack. The three always sum to the
// horizon.
func (r *Result) accountPlatform(epochs []epoch, horizon timeu.Ticks) {
	r.ModeService = make(map[task.Mode]timeu.Ticks, task.NumModes)
	var used timeu.Ticks
	for _, m := range task.Modes() {
		var svc timeu.Ticks
		for _, ep := range epochs {
			svc += periodicLength(ep.spec.usable[m], ep.spec.period, ep.from, ep.to)
			r.OverheadTime += periodicLength(ep.spec.overhead[m], ep.spec.period, ep.from, ep.to)
		}
		r.ModeService[m] = svc
		used += svc
	}
	r.SlackTime = horizon - used - r.OverheadTime
}

// newResult returns an empty result whose maps are sized for the given
// numbers of channels and task residencies.
func newResult(horizon timeu.Ticks, channels, residencies int, collectTrace bool) *Result {
	r := &Result{
		Horizon:  horizon,
		Tasks:    make(map[string]*TaskStats, residencies),
		Channels: make(map[ChannelID]*ChannelStats, channels),
	}
	if collectTrace {
		r.Trace = &trace.Log{}
	}
	return r
}

// merge folds one channel's result into r, copying its accounting into
// slot, and its residencies' stats into per-task stats of r's own, so r
// aliases nothing of cr.
func (r *Result) merge(cr *channelResult, slot *ChannelStats) {
	*slot = cr.ChannelStats
	r.Channels[cr.id] = slot
	r.Silenced += cr.Silenced
	r.Corruptions += cr.Corruptions
	r.TransitionLateness.merge(&cr.TransitionLateness)
	for _, res := range cr.residencies {
		dst := r.Tasks[res.Task.Name]
		if dst == nil {
			dst = &TaskStats{}
			r.Tasks[res.Task.Name] = dst
		}
		dst.add(res.Stats)
	}
	if r.Trace != nil && cr.log != nil {
		r.Trace.Events = append(r.Trace.Events, cr.log.Events...)
		r.Trace.Segments = append(r.Trace.Segments, cr.log.Segments...)
		r.Trace.DroppedEvents += cr.log.DroppedEvents
		r.Trace.DroppedSegments += cr.log.DroppedSegments
	}
}

// accountFaults classifies each fault by the usable windows its
// condition overlapped. A long fault can overlap several modes and then
// counts in each category it reaches; a fault that touches no service
// window at all is harmless.
func (r *Result) accountFaults(schedule []faults.Fault, epochs []epoch) {
	for _, f := range schedule {
		touched := false
		if usableDuring(f, epochs, task.FT) {
			r.Masked++
			touched = true
			if r.Trace != nil {
				r.Trace.Add(trace.Event{At: f.At, Kind: trace.Masked, Mode: task.FT, Core: f.Core})
			}
		}
		if usableDuring(f, epochs, task.FS) {
			touched = true
			if r.Trace != nil {
				ch, _ := platform.CoreChannel(task.FS, f.Core)
				r.Trace.Add(trace.Event{At: f.At, Kind: trace.Silenced, Mode: task.FS, Channel: ch, Core: f.Core})
			}
		}
		if usableDuring(f, epochs, task.NF) {
			touched = true
		}
		if !touched {
			r.HarmlessFaults++
		}
		if r.Trace != nil {
			r.Trace.Add(trace.Event{At: f.At, Kind: trace.FaultStrike, Core: f.Core})
			r.Trace.Add(trace.Event{At: f.End(), Kind: trace.FaultClear, Core: f.Core})
		}
	}
}

// usableDuring reports whether mode m serves at some instant of the
// fault, in any of the time-ordered epochs the fault overlaps.
func usableDuring(f faults.Fault, epochs []epoch, m task.Mode) bool {
	for _, ep := range epochs {
		if ep.from >= f.End() {
			break
		}
		from, to := max(ep.from, f.At), min(ep.to, f.End())
		if periodicLength(ep.spec.usable[m], ep.spec.period, from, to) > 0 {
			return true
		}
	}
	return false
}

// TotalMisses sums deadline misses over all tasks.
func (r *Result) TotalMisses() int {
	n := 0
	for _, ts := range r.Tasks {
		n += ts.Missed
	}
	return n
}

// TotalReleased sums job releases over all tasks.
func (r *Result) TotalReleased() int {
	n := 0
	for _, ts := range r.Tasks {
		n += ts.Released
	}
	return n
}

// TotalCompleted sums completions over all tasks.
func (r *Result) TotalCompleted() int {
	n := 0
	for _, ts := range r.Tasks {
		n += ts.Completed
	}
	return n
}

// TotalCancelled sums withdrawn-at-departure jobs over all tasks.
func (r *Result) TotalCancelled() int {
	n := 0
	for _, ts := range r.Tasks {
		n += ts.Cancelled
	}
	return n
}

// TotalTransitionLate sums reshape-excused late jobs over all tasks.
func (r *Result) TotalTransitionLate() int {
	n := 0
	for _, ts := range r.Tasks {
		n += ts.TransitionLate
	}
	return n
}

// Summary renders a human-readable digest: one line per task plus the
// fault tallies, suitable for CLI output.
func (r *Result) Summary() string {
	names := make([]string, 0, len(r.Tasks))
	for n := range r.Tasks {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "horizon %s\n", r.Horizon)
	for _, n := range names {
		ts := r.Tasks[n]
		fmt.Fprintf(&b, "%-8s released %4d  completed %4d  missed %3d  aborted %2d  recovered %2d  corrupted %2d  maxResp %s\n",
			n, ts.Released, ts.Completed, ts.Missed, ts.Aborted, ts.Recovered, ts.Corrupted, ts.MaxResponse)
	}
	fmt.Fprintf(&b, "faults %d: masked %d, silenced-kills %d, corruptions %d, harmless %d\n",
		r.TotalFaults, r.Masked, r.Silenced, r.Corruptions, r.HarmlessFaults)
	if n := r.TotalCancelled(); n > 0 {
		fmt.Fprintf(&b, "cancelled at departure: %d jobs (deadlines ahead — excused)\n", n)
	}
	if n := r.TotalTransitionLate(); n > 0 {
		fmt.Fprintf(&b, "transition-late: %d jobs (bounded mode-change latency across reshapes)\n", n)
	}
	if r.Trace.Truncated() {
		fmt.Fprintf(&b, "trace truncated: %d events, %d segments dropped\n", r.Trace.DroppedEvents, r.Trace.DroppedSegments)
	}
	return b.String()
}
