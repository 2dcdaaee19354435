package sim

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/task"
	"repro/internal/timeu"
)

// newJobQueue builds a queue for a channel's initial task list.
func newJobQueue(alg analysis.Alg, tasks task.Set) *jobQueue {
	q := &jobQueue{alg: alg}
	for _, t := range tasks {
		q.addTask(t)
	}
	return q
}

func nfTasks(names ...string) task.Set {
	s := make(task.Set, len(names))
	for i, n := range names {
		s[i] = task.Task{Name: n, C: 1, T: float64(4 * (i + 1)), D: float64(4 * (i + 1)), Mode: task.NF}
	}
	return s
}

func TestJobQueueEDFOrder(t *testing.T) {
	q := newJobQueue(analysis.EDF, nfTasks("a", "b", "c"))
	q.push(&Job{TaskName: "late", TaskIndex: 0, Deadline: 30, seq: 1})
	q.push(&Job{TaskName: "early", TaskIndex: 1, Deadline: 10, seq: 2})
	q.push(&Job{TaskName: "mid", TaskIndex: 2, Deadline: 20, seq: 3})
	want := []string{"early", "mid", "late"}
	for _, w := range want {
		if got := q.pop(); got == nil || got.TaskName != w {
			t.Fatalf("pop order wrong, want %s got %+v", w, got)
		}
	}
	if q.pop() != nil {
		t.Error("empty queue should pop nil")
	}
}

func TestJobQueueEDFTieBreaks(t *testing.T) {
	q := newJobQueue(analysis.EDF, nfTasks("a", "b"))
	// Equal deadlines: earlier release wins; equal releases: lower seq.
	q.push(&Job{TaskName: "secondSeq", TaskIndex: 0, Deadline: 10, Release: 2, seq: 5})
	q.push(&Job{TaskName: "earlyRel", TaskIndex: 1, Deadline: 10, Release: 1, seq: 9})
	q.push(&Job{TaskName: "firstSeq", TaskIndex: 0, Deadline: 10, Release: 2, seq: 3})
	want := []string{"earlyRel", "firstSeq", "secondSeq"}
	for _, w := range want {
		if got := q.pop(); got.TaskName != w {
			t.Fatalf("tie-break order wrong, want %s got %s", w, got.TaskName)
		}
	}
}

func TestJobQueueRMStaticRanks(t *testing.T) {
	// Task order in the channel list differs from priority order: ranks
	// must follow periods, not positions.
	s := task.Set{
		{Name: "slow", C: 1, T: 20, D: 20, Mode: task.NF},
		{Name: "fast", C: 1, T: 4, D: 4, Mode: task.NF},
	}
	q := newJobQueue(analysis.RM, s)
	q.push(&Job{TaskName: "slow", TaskIndex: 0, Deadline: 20, seq: 1})
	q.push(&Job{TaskName: "fast", TaskIndex: 1, Deadline: 100, seq: 2}) // deadline irrelevant for RM
	if got := q.peek(); got.TaskName != "fast" {
		t.Fatalf("RM should dispatch the short-period task first, got %s", got.TaskName)
	}
}

func TestJobQueueDrainSorted(t *testing.T) {
	q := newJobQueue(analysis.EDF, nfTasks("a"))
	for i := 5; i > 0; i-- {
		q.push(&Job{TaskName: "a", TaskIndex: 0, Deadline: timeu.Ticks(i * 10), seq: uint64(i)})
	}
	out := q.drain()
	if len(out) != 5 {
		t.Fatalf("drained %d jobs, want 5", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Deadline < out[i-1].Deadline {
			t.Fatal("drain must return priority order")
		}
	}
	if len(q.jobs) != 0 {
		t.Error("queue should be empty after drain")
	}
}
