package sim

import (
	"repro/internal/analysis"
	"repro/internal/task"
)

// queueKey is the per-task priority key for fixed-priority dispatch.
// Comparing keys directly (with the task's registration index as the
// final tie-break) yields exactly the order a stable SortedRM/SortedDM
// pass assigns positional ranks in, but — unlike precomputed ranks — it
// keeps working when tasks join and leave the channel mid-run.
type queueKey struct {
	t, d float64
	name string
}

// jobQueue is a priority heap of ready jobs. Fixed-priority algorithms
// compare the static task keys; EDF compares absolute deadlines. Ties
// break on release time, then on an insertion sequence number, so
// dispatch is fully deterministic.
//
// The heap operations are concrete (no container/heap) to keep the
// dispatch hot path free of interface boxing, but they reproduce
// container/heap's sift algorithm move for move, so the element order —
// and therefore every tie-broken dispatch decision — is bit-identical
// to the boxed implementation the linear-scan oracle test was written
// against.
type jobQueue struct {
	alg  analysis.Alg
	keys []queueKey // one per registered task index, append-only
	jobs []*Job

	victims []*Job // removeTask and drain scratch, reused across reshapes
}

// reset empties the queue for another run, keeping its buffers. The
// keys' task names and the jobs' pointers are cleared, so a pooled
// queue keeps neither alive.
func (q *jobQueue) reset() {
	clear(q.keys)
	clear(q.jobs)
	clear(q.victims)
	q.keys, q.jobs, q.victims = q.keys[:0], q.jobs[:0], q.victims[:0]
}

// addTask registers a task and returns its index. Indices are assigned
// in registration order and never reused — a task that leaves and
// returns gets a fresh index.
func (q *jobQueue) addTask(t task.Task) int {
	q.keys = append(q.keys, queueKey{t: t.T, d: t.D, name: t.Name})
	return len(q.keys) - 1
}

// fpLess orders task keys under RM (period, then deadline) or DM
// (deadline, then period), with the name as a deterministic tie-break —
// the same total order task.LessRM/LessDM give SortedRM/SortedDM.
func fpLess(alg analysis.Alg, a, b queueKey) bool {
	var p1, s1, p2, s2 float64
	if alg == analysis.RM {
		p1, s1, p2, s2 = a.t, a.d, b.t, b.d
	} else {
		p1, s1, p2, s2 = a.d, a.t, b.d, b.t
	}
	if p1 != p2 {
		return p1 < p2
	}
	if s1 != s2 {
		return s1 < s2
	}
	return a.name < b.name
}

func (q *jobQueue) higher(a, b *Job) bool {
	if q.alg == analysis.EDF {
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
	} else if a.TaskIndex != b.TaskIndex {
		ka, kb := q.keys[a.TaskIndex], q.keys[b.TaskIndex]
		if fpLess(q.alg, ka, kb) {
			return true
		}
		if fpLess(q.alg, kb, ka) {
			return false
		}
		// Identical keys: stable sorting would have ranked them by
		// original position, i.e. registration order.
		return a.TaskIndex < b.TaskIndex
	}
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	return a.seq < b.seq
}

func (q *jobQueue) less(i, j int) bool { return q.higher(q.jobs[i], q.jobs[j]) }

func (q *jobQueue) swap(i, j int) {
	q.jobs[i], q.jobs[j] = q.jobs[j], q.jobs[i]
	q.jobs[i].heapIndex = i
	q.jobs[j].heapIndex = j
}

func (q *jobQueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

func (q *jobQueue) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

// push enqueues a ready job.
func (q *jobQueue) push(j *Job) {
	j.heapIndex = len(q.jobs)
	q.jobs = append(q.jobs, j)
	q.up(len(q.jobs) - 1)
}

// pop dequeues the highest-priority job; nil when empty.
func (q *jobQueue) pop() *Job {
	if len(q.jobs) == 0 {
		return nil
	}
	n := len(q.jobs) - 1
	q.swap(0, n)
	q.down(0, n)
	j := q.jobs[n]
	q.jobs[n] = nil
	q.jobs = q.jobs[:n]
	return j
}

// peek returns the highest-priority job without removing it.
func (q *jobQueue) peek() *Job {
	if len(q.jobs) == 0 {
		return nil
	}
	return q.jobs[0]
}

// removeAt removes and returns the job at heap position i.
func (q *jobQueue) removeAt(i int) *Job {
	n := len(q.jobs) - 1
	if n != i {
		q.swap(i, n)
		if !q.down(i, n) {
			q.up(i)
		}
	}
	j := q.jobs[n]
	q.jobs[n] = nil
	q.jobs = q.jobs[:n]
	return j
}

// removeTask withdraws every pending job of the given task index and
// returns them (in no particular order) — the cancellation path when a
// task leaves the channel at a reshape boundary. The returned slice
// aliases the queue's scratch buffer and is valid until the next
// removeTask call.
func (q *jobQueue) removeTask(idx int) []*Job {
	q.victims = q.victims[:0]
	for _, j := range q.jobs {
		if j.TaskIndex == idx {
			q.victims = append(q.victims, j)
		}
	}
	for _, j := range q.victims {
		q.removeAt(j.heapIndex)
	}
	return q.victims
}

// drain empties the queue, returning the jobs in priority order. Like
// removeTask's, the returned slice aliases the queue's scratch buffer.
func (q *jobQueue) drain() []*Job {
	q.victims = q.victims[:0]
	for {
		j := q.pop()
		if j == nil {
			return q.victims
		}
		q.victims = append(q.victims, j)
	}
}
