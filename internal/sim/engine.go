package sim

import (
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/trace"
)

// engineTask is one task registered with a channel engine. Registration
// is append-only: a task that leaves and returns gets a fresh entry (a
// fresh residency), so indices in live jobs stay valid forever.
type engineTask struct {
	name        string
	period      timeu.Ticks
	deadline    timeu.Ticks
	wcet        timeu.Ticks
	nextRelease timeu.Ticks
	active      bool
	res         int // index of the task's residency in the channel stats
}

// releaseEntry is one pending job release in the release heap.
type releaseEntry struct {
	at  timeu.Ticks
	idx int // engine task index
}

// releaseHeap is a min-heap of pending releases ordered by time, then
// by task registration index — exactly the order the linear scan
// releases equal-time jobs in, so the two paths are bit-identical. The
// sift operations are concrete copies of container/heap's algorithm
// (same moves, no interface boxing).
type releaseHeap []releaseEntry

func (h releaseHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].idx < h[j].idx
}

func (h releaseHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h releaseHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}

func (h *releaseHeap) push(e releaseEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *releaseHeap) pop() releaseEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	e := old[n]
	*h = old[:n]
	return e
}

// remove deletes the entry at position i, container/heap.Remove style.
func (h *releaseHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if n != i {
		old[i], old[n] = old[n], old[i]
		if !old.down(i, n) {
			old.up(i)
		}
	}
	*h = old[:n]
}

func (h releaseHeap) min() timeu.Ticks { return h[0].at }

// engine simulates one channel: periodic job releases (synchronous
// pattern, offset at the task's residency start — the worst case the
// analysis assumes), preemptive dispatch of the highest-priority ready
// job whenever the channel's service intervals allow, fail-silent
// aborts at block instants, and NF corruption marking.
//
// The engine is re-provisionable: a scenario replay runs it epoch by
// epoch (provision, then runUntil the epoch's end), carrying in-flight
// jobs across each reshape while the service windows, the fault
// overlays and the task membership change under it. The static
// simulator is the one-epoch special case.
//
// Engines are pooled across runs: getEngine is the only way to make
// one and putEngine returns it with its buffers, heaps, registry and
// job records emptied but kept, so a warm run allocates none of them.
// What a run hands out (its Result, Replay's residencies, the trace)
// is copied out of the engine or allocated apart from it, never
// aliased.
type engine struct {
	id       ChannelID
	alg      analysis.Alg
	horizon  timeu.Ticks
	recovery Recovery
	log      *trace.Log

	// linearReleases selects the original O(n)-per-event release scan
	// instead of the release heap. Kept as the oracle for the heap
	// path's bit-identity test.
	linearReleases bool

	queue    jobQueue
	releases releaseHeap

	tasks  []engineTask
	byName map[string]int // live named tasks → engine index

	service    []interval
	blockAt    map[timeu.Ticks]bool
	corrupt    []interval
	svcIdx     int
	corruptIdx int

	// Epoch provisioning scratch, reused across reshapes. serviceFor and
	// corruptFor build each epoch's windows in these; the results stay
	// valid until the next provisioning, the exact lifetime an epoch
	// needs. svcBuf, blockBuf and corruptBuf back the installed
	// service, block and corrupt tables; winBuf and faultBuf are
	// intermediates. joinBuf and leaveBuf hold the epoch's joins and
	// leaves on this channel.
	svcBuf     []interval
	blockBuf   map[timeu.Ticks]bool
	winBuf     []interval
	corruptBuf []interval
	faultBuf   []interval
	joinBuf    task.Set
	leaveBuf   task.Set

	// freeJobs recycles Job records: a job never outlives its terminal
	// event (complete, abort, cancel, the horizon), so the steady state
	// re-releases from the freelist instead of allocating per release.
	freeJobs []*Job

	// period is the slot-cycle period; excuses are the instants of
	// non-covering reshapes (see provision). Both stay zero in a
	// static run.
	period  timeu.Ticks
	excuses []timeu.Ticks

	now   timeu.Ticks
	seq   uint64
	stats channelResult
}

// enginePool keeps emptied engines between runs, as analysis's
// patchPool keeps patch scratch.
var enginePool = sync.Pool{New: func() any { return &engine{byName: make(map[string]int)} }}

// getEngine takes an engine from the pool and binds it to one channel
// of a run: the algorithm, the horizon, the slot-cycle period and the
// options' recovery policy, trace log and release path.
func getEngine(id ChannelID, alg analysis.Alg, horizon, period timeu.Ticks, opts Options) *engine {
	e := enginePool.Get().(*engine)
	e.id, e.alg, e.horizon, e.period = id, alg, horizon, period
	e.recovery, e.log = opts.Recovery, opts.newEngineLog()
	e.linearReleases = opts.linearReleases
	e.queue.alg = alg
	e.stats.id, e.stats.log = id, e.log
	return e
}

// putEngine returns e to the pool. It drops every reference to the
// caller's memory (the trace log, the recovery policy, the residencies'
// stats) and clears every task name e holds, so a pooled engine keeps
// nothing of a finished run alive; the buffers are kept, emptied. A
// field the literal below does not list is zeroed, so a field added to
// engine is dropped on every Put unless it is listed there.
func putEngine(e *engine) {
	e.queue.reset()
	clear(e.tasks)
	clear(e.byName)
	clear(e.blockBuf)
	clear(e.joinBuf)
	clear(e.leaveBuf)
	clear(e.stats.residencies)
	for _, j := range e.freeJobs {
		j.TaskName = ""
	}
	*e = engine{
		queue:      e.queue,
		releases:   e.releases[:0],
		tasks:      e.tasks[:0],
		byName:     e.byName,
		svcBuf:     e.svcBuf[:0],
		blockBuf:   e.blockBuf,
		winBuf:     e.winBuf[:0],
		corruptBuf: e.corruptBuf[:0],
		faultBuf:   e.faultBuf[:0],
		joinBuf:    e.joinBuf[:0],
		leaveBuf:   e.leaveBuf[:0],
		freeJobs:   e.freeJobs,
		excuses:    e.excuses[:0],
		stats:      channelResult{residencies: e.stats.residencies[:0]},
	}
	enginePool.Put(e)
}

// freeJob returns a finished job record to the pool. The caller must be
// done with every field — the record is reused wholesale by the next
// release.
func (e *engine) freeJob(j *Job) { e.freeJobs = append(e.freeJobs, j) }

// newJob produces a zeroed job record, recycling the pool when it can.
func (e *engine) newJob() *Job {
	if n := len(e.freeJobs); n > 0 {
		j := e.freeJobs[n-1]
		e.freeJobs = e.freeJobs[:n-1]
		*j = Job{}
		return j
	}
	return &Job{}
}

// provision starts a new epoch at `from`: installs the epoch's service
// windows and corruption overlays, retires leaving tasks (cancelling
// their pending jobs) and registers joining ones (synchronous release
// at `from`). In-flight jobs of surviving tasks are untouched — they
// carry across the reshape.
//
// perturbed marks a non-covering reshape: the new service windows do
// not contain the old ones, so the channel transiently supplies less
// than either epoch's analysis promises (a slot shrink, or the shift
// every later slot suffers when an earlier one resizes). The displaced
// backlog is under one slot-cycle period of work — but minimal-slot
// configurations have zero scheduling margin, so it never drains: jobs
// from then on can finish late by less than one period per such
// reshape, indefinitely. provision records the reshape instant and the
// engine classifies misses within that cumulative bound as
// TransitionLate rather than Missed. Covering reshapes (pure slot
// growth) only add supply: carried jobs keep their old-epoch
// guarantee, so no grace is needed.
func (e *engine) provision(from timeu.Ticks, svc serviceWindows, corrupt []interval, leaves, joins task.Set, perturbed bool) error {
	e.now = from
	e.service, e.blockAt, e.corrupt = svc.intervals, svc.blockStarts, corrupt
	e.svcIdx, e.corruptIdx = 0, 0
	for _, iv := range svc.intervals {
		e.stats.Service += iv.length()
	}
	for _, t := range leaves {
		idx, ok := e.byName[t.Name]
		if !ok || !e.tasks[idx].active {
			continue
		}
		e.retire(idx, from)
		delete(e.byName, t.Name)
	}
	// One slab holds the new residencies' stats. It is allocated per
	// provisioning, apart from the pooled engine, because Replay hands
	// the residencies to its caller.
	stats := make([]TaskStats, len(joins))
	for i, t := range joins {
		if err := e.register(t, from, &stats[i]); err != nil {
			return err
		}
	}
	if perturbed {
		e.excuses = append(e.excuses, from)
	}
	return nil
}

// transitionExcused reports whether a job running `late` past its
// deadline is within the transition-latency bound: at least one
// non-covering reshape happened before its deadline (so the reshape's
// residual backlog could delay it), and the lateness is under one
// slot-cycle period per such reshape.
func (e *engine) transitionExcused(j *Job, late timeu.Ticks) bool {
	if e.period <= 0 {
		return false
	}
	n := timeu.Ticks(0)
	for _, at := range e.excuses {
		if at < j.Deadline {
			n++
		}
	}
	return n > 0 && late < e.period*n
}

// late classifies job j, late by `late`, into ts: TransitionLate, with
// its lateness recorded, when transitionExcused allows it, else Missed.
// Either way it logs a Miss event at instant at. unfinished describes
// a job withdrawn before it finished ("unfinished at departure"); ""
// means the job finished late, and the detail then states the
// lateness.
func (e *engine) late(j *Job, ts *TaskStats, at, late timeu.Ticks, unfinished string) {
	excused := e.transitionExcused(j, late)
	detail := unfinished
	switch {
	case unfinished == "" && excused:
		detail = fmt.Sprintf("transition-late by %s", late)
	case unfinished == "":
		detail = fmt.Sprintf("late by %s", late)
	case excused:
		detail += " (transition-late)"
	}
	if excused {
		ts.TransitionLate++
		e.stats.recordLate(late, e.period)
	} else {
		ts.Missed++
	}
	e.log.Add(trace.Event{At: at, Kind: trace.Miss, Task: j.TaskName, Mode: e.id.Mode, Channel: e.id.Ch, Core: -1, Detail: detail})
}

// register adds a task at instant `from`, opening a fresh residency
// whose jobs are tallied in ts.
func (e *engine) register(t task.Task, from timeu.Ticks, ts *TaskStats) error {
	period := timeu.FromUnits(t.T)
	deadline := timeu.FromUnits(t.D)
	wcet := timeu.FromUnitsUp(t.C) // never under-charge work
	if period <= 0 || wcet <= 0 {
		return fmt.Errorf("sim: task %s has degenerate timing in ticks", t.Name)
	}
	idx := e.queue.addTask(t)
	e.tasks = append(e.tasks, engineTask{
		name:        t.Name,
		period:      period,
		deadline:    deadline,
		wcet:        wcet,
		nextRelease: from,
		active:      true,
		res:         len(e.stats.residencies),
	})
	e.stats.residencies = append(e.stats.residencies, Residency{
		Task: t, From: from, To: e.horizon, Stats: ts,
	})
	if t.Name != "" {
		e.byName[t.Name] = idx
	}
	if !e.linearReleases && from < e.horizon {
		e.releases.push(releaseEntry{at: from, idx: idx})
	}
	return nil
}

// retire ends a task's residency at instant `at`: no further releases,
// and its pending jobs are withdrawn. A withdrawn job whose deadline
// already passed was resident through its whole window without
// finishing — that is a genuine miss; one whose deadline lies ahead is
// cancelled (the demand left with the task).
func (e *engine) retire(idx int, at timeu.Ticks) {
	et := &e.tasks[idx]
	et.active = false
	if !e.linearReleases {
		for i, ent := range e.releases {
			if ent.idx == idx {
				e.releases.remove(i)
				break
			}
		}
	}
	ts := e.stats.residencies[et.res].Stats
	for _, j := range e.queue.removeTask(idx) {
		if j.Deadline <= at {
			// Final lateness is unknowable — the job leaves unfinished —
			// but is at least at-Deadline; classify on that lower bound.
			e.late(j, ts, at, at-j.Deadline, "unfinished at departure")
		} else {
			ts.Cancelled++
			e.log.Add(trace.Event{At: at, Kind: trace.Cancelled, Task: j.TaskName, Mode: e.id.Mode, Channel: e.id.Ch, Core: -1})
		}
		e.freeJob(j)
	}
	e.stats.residencies[et.res].To = at
}

// runUntil advances the simulation to instant `to` (≤ horizon).
func (e *engine) runUntil(to timeu.Ticks) error {
	for e.now < to {
		e.releaseDue(e.now)
		nr := e.nextReleaseTime()
		job := e.queue.peek()
		if job == nil {
			e.now = min(nr, to)
			continue
		}
		sv, ok := e.currentService(e.now)
		if !ok {
			// No service at `now`: idle until service resumes or a new
			// release arrives (which cannot start earlier anyway, but
			// keeps the release bookkeeping exact).
			next := min(nr, to)
			if e.svcIdx < len(e.service) {
				next = min(next, e.service[e.svcIdx].From)
			}
			if next <= e.now {
				return fmt.Errorf("sim: time stuck at %s on %s", e.now, e.id)
			}
			e.now = next
			continue
		}
		// Execute the head job until it finishes, the service window
		// closes, or a release may preempt.
		next := min(e.now+job.Remaining, sv.To, nr, to)
		if next <= e.now {
			return fmt.Errorf("sim: no progress at %s on %s", e.now, e.id)
		}
		e.markCorruption(job, e.now, next)
		job.Remaining -= next - e.now
		e.stats.Busy += next - e.now
		e.log.AddSegment(trace.Segment{From: e.now, To: next, Task: job.TaskName, Mode: e.id.Mode, Channel: e.id.Ch})
		e.now = next
		switch {
		case job.Remaining == 0:
			e.complete(job, e.now)
		case e.now == sv.To && e.blockAt[e.now]:
			e.abort(job, e.now)
		}
	}
	return nil
}

// taskStats returns the stats bucket of the job's current residency.
func (e *engine) taskStats(idx int) *TaskStats {
	return e.stats.residencies[e.tasks[idx].res].Stats
}

// releaseDue pushes every job with release time ≤ now.
func (e *engine) releaseDue(now timeu.Ticks) {
	if e.linearReleases {
		for i := range e.tasks {
			if !e.tasks[i].active {
				continue
			}
			for e.tasks[i].nextRelease <= now && e.tasks[i].nextRelease < e.horizon {
				e.releaseJob(i, e.tasks[i].nextRelease)
			}
		}
		return
	}
	for len(e.releases) > 0 && e.releases.min() <= now {
		ent := e.releases.pop()
		e.releaseJob(ent.idx, ent.at)
	}
}

// releaseJob creates and enqueues one job of task idx released at rel.
func (e *engine) releaseJob(idx int, rel timeu.Ticks) {
	et := &e.tasks[idx]
	e.seq++
	j := e.newJob()
	j.TaskName = et.name
	j.TaskIndex = idx
	j.Release = rel
	j.Deadline = rel + et.deadline
	j.Total = et.wcet
	j.Remaining = et.wcet
	j.seq = e.seq
	e.queue.push(j)
	e.taskStats(idx).Released++
	e.log.Add(trace.Event{At: rel, Kind: trace.Release, Task: j.TaskName, Mode: e.id.Mode, Channel: e.id.Ch, Core: -1})
	et.nextRelease = rel + et.period
	if !e.linearReleases && et.nextRelease < e.horizon {
		e.releases.push(releaseEntry{at: et.nextRelease, idx: idx})
	}
}

// nextReleaseTime returns the earliest pending release, or the horizon.
func (e *engine) nextReleaseTime() timeu.Ticks {
	if e.linearReleases {
		next := e.horizon
		for i := range e.tasks {
			if e.tasks[i].active && e.tasks[i].nextRelease < next {
				next = e.tasks[i].nextRelease
			}
		}
		return next
	}
	if len(e.releases) == 0 {
		return e.horizon
	}
	return min(e.releases.min(), e.horizon)
}

// currentService positions svcIdx at the interval containing or
// following now and reports whether now is inside service.
func (e *engine) currentService(now timeu.Ticks) (interval, bool) {
	for e.svcIdx < len(e.service) && e.service[e.svcIdx].To <= now {
		e.svcIdx++
	}
	if e.svcIdx >= len(e.service) {
		return interval{}, false
	}
	sv := e.service[e.svcIdx]
	if now < sv.From {
		return interval{}, false
	}
	return sv, true
}

// markCorruption flags the job if its execution in [from, to) overlaps a
// fault interval on this NF channel.
func (e *engine) markCorruption(j *Job, from, to timeu.Ticks) {
	for e.corruptIdx < len(e.corrupt) && e.corrupt[e.corruptIdx].To <= from {
		e.corruptIdx++
	}
	for i := e.corruptIdx; i < len(e.corrupt); i++ {
		iv := e.corrupt[i]
		if iv.From >= to {
			break
		}
		if iv.intersects(from, to) && !j.Corrupted {
			j.Corrupted = true
			e.stats.Corruptions++
			e.log.Add(trace.Event{At: max(iv.From, from), Kind: trace.Corrupted, Task: j.TaskName, Mode: e.id.Mode, Channel: e.id.Ch, Core: -1})
		}
	}
}

// complete finalises a finished job: response-time stats, deadline check.
func (e *engine) complete(j *Job, now timeu.Ticks) {
	e.queue.pop()
	ts := e.taskStats(j.TaskIndex)
	ts.Completed++
	resp := now - j.Release
	ts.SumResponse += resp
	if resp > ts.MaxResponse {
		ts.MaxResponse = resp
	}
	if j.Corrupted {
		ts.Corrupted++
	}
	if now > j.Deadline {
		e.late(j, ts, now, now-j.Deadline, "")
		e.freeJob(j)
		return
	}
	e.log.Add(trace.Event{At: now, Kind: trace.Complete, Task: j.TaskName, Mode: e.id.Mode, Channel: e.id.Ch, Core: -1})
	e.freeJob(j)
}

// abort kills the job running when a fail-silent shutdown hits, then
// consults the recovery policy.
func (e *engine) abort(j *Job, now timeu.Ticks) {
	e.queue.pop()
	ts := e.taskStats(j.TaskIndex)
	ts.Aborted++
	e.stats.Silenced++
	e.log.Add(trace.Event{At: now, Kind: trace.Abort, Task: j.TaskName, Mode: e.id.Mode, Channel: e.id.Ch, Core: -1})
	if e.recovery == nil {
		e.freeJob(j)
		return
	}
	if re, ok := e.recovery.OnAbort(*j, now); ok {
		e.seq++
		re.seq = e.seq
		re.heapIndex = 0
		// Recycle the aborted record to carry the re-issued job: the
		// policy received a copy, so nothing aliases j any more.
		*j = re
		e.queue.push(j)
		ts.Recovered++
		return
	}
	e.freeJob(j)
}

// finish accounts jobs still pending at the horizon: any with a deadline
// inside the horizon has missed it. The horizon truncates such a job
// mid-flight, so its final lateness is unknowable; the classification
// uses the lower bound horizon-Deadline, giving the truncation the
// benefit of the doubt when reshapes could explain it.
//
// The drained jobs go back to the freelist. The returned result is
// the engine's own and valid until putEngine.
func (e *engine) finish() *channelResult {
	for _, j := range e.queue.drain() {
		if j.Deadline <= e.horizon && j.Remaining > 0 {
			e.late(j, e.taskStats(j.TaskIndex), j.Deadline, e.horizon-j.Deadline, "unfinished at horizon")
		}
		e.freeJob(j)
	}
	return &e.stats
}
