package sim

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/task"
	"repro/internal/timeu"
)

func TestLatenessHistogramBuckets(t *testing.T) {
	var h LatenessHistogram
	period := timeu.FromUnits(10)
	h.observe(timeu.FromUnits(0.5), period) // 0.05 P → bucket 0
	h.observe(timeu.FromUnits(5), period)   // 0.5 P → bucket 5
	h.observe(timeu.FromUnits(9.9), period) // 0.99 P → bucket 9
	h.observe(timeu.FromUnits(100), period) // 10 P → overflow bucket
	if h.Count != 4 {
		t.Fatalf("Count = %d, want 4", h.Count)
	}
	if h.Max != timeu.FromUnits(100) {
		t.Errorf("Max = %s, want 100", h.Max)
	}
	for i, want := range map[int]int{0: 1, 5: 1, 9: 1, latenessBuckets - 1: 1} {
		if h.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, h.Buckets[i], want)
		}
	}
	var sum int
	for _, n := range h.Buckets {
		sum += n
	}
	if sum != h.Count {
		t.Errorf("bucket sum %d != Count %d", sum, h.Count)
	}

	var m LatenessHistogram
	m.merge(&h)
	m.merge(&h)
	if m.Count != 8 || m.Buckets[5] != 2 {
		t.Errorf("merge: Count = %d buckets[5] = %d, want 8 and 2", m.Count, m.Buckets[5])
	}
	if s := m.String(); !strings.Contains(s, "[0.5P, 0.6P): 2") || !strings.Contains(s, "∞") {
		t.Errorf("String missing expected buckets:\n%s", s)
	}
	var empty LatenessHistogram
	if s := empty.String(); !strings.Contains(s, "no transition-late") {
		t.Errorf("empty String = %q", s)
	}
}

// TestEngineRecordsTransitionLateness drives one engine through a
// non-covering reshape that delays a carried release past its deadline
// by half a period, and checks the lateness lands in the histogram —
// classified transition-late, not missed.
func TestEngineRecordsTransitionLateness(t *testing.T) {
	u := timeu.FromUnits
	horizon := u(60)
	eng := getEngine(ChannelID{Mode: task.NF, Ch: 0}, analysis.EDF, horizon, u(10), Options{})
	defer putEngine(eng)
	tk := task.Task{Name: "x", C: 10, T: 20, D: 20, Mode: task.NF}

	// Epoch 1 [0, 20): full service. The job released at 0 (deadline 20,
	// wcet 10) completes at 10.
	if err := eng.provision(0, serviceWindows{intervals: []interval{{From: 0, To: u(20)}}}, nil, nil, task.Set{tk}, false); err != nil {
		t.Fatal(err)
	}
	if err := eng.runUntil(u(20)); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 [20, 60): a non-covering reshape pushes service to
	// [35, 60). The job released at 20 (deadline 40) runs [35, 45) and
	// finishes 5 units late — half the slot-cycle period, within the
	// one-period transition bound.
	if err := eng.provision(u(20), serviceWindows{intervals: []interval{{From: u(35), To: u(60)}}}, nil, nil, nil, true); err != nil {
		t.Fatal(err)
	}
	if err := eng.runUntil(u(60)); err != nil {
		t.Fatal(err)
	}
	cr := eng.finish()

	var ts TaskStats
	for _, res := range cr.residencies {
		ts.add(res.Stats)
	}
	if ts.Missed != 0 || ts.TransitionLate != 1 {
		t.Fatalf("missed = %d transition-late = %d, want 0 and 1", ts.Missed, ts.TransitionLate)
	}
	h := &cr.TransitionLateness
	if h.Count != 1 || h.Max != u(5) {
		t.Fatalf("histogram count = %d max = %s, want 1 and 5", h.Count, h.Max)
	}
	if h.Buckets[5] != 1 {
		t.Fatalf("lateness of 0.5 P should land in bucket 5, got %+v", h.Buckets)
	}

	// The merged result carries the histogram through.
	r := newResult(horizon, 1, len(cr.residencies), false)
	r.merge(cr, new(ChannelStats))
	if r.TransitionLateness.Count != 1 || r.TransitionLateness.Count != r.TotalTransitionLate() {
		t.Fatalf("merged histogram count = %d, TotalTransitionLate = %d",
			r.TransitionLateness.Count, r.TotalTransitionLate())
	}
}
