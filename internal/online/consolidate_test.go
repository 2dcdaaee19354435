package online

import (
	"sync"
	"testing"

	"repro/internal/task"
	"repro/internal/trace"
)

// eventRecorder is a concurrency-safe sink for Manager events.
type eventRecorder struct {
	mu  sync.Mutex
	evs []Event
}

func (r *eventRecorder) sink(ev Event) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

func (r *eventRecorder) count(k trace.Kind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ev := range r.evs {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

func (r *eventRecorder) last(k trace.Kind) (Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.evs) - 1; i >= 0; i-- {
		if r.evs[i].Kind == k {
			return r.evs[i], true
		}
	}
	return Event{}, false
}

// TestConsolidateRatioTrigger pins the memory-ratio policy: a manager
// with a low ratio threshold rebuilds a churned channel automatically
// (resetting its patch counter and reporting a Consolidated event for
// the right channel), stays bit-identical to a fresh compile, and a
// sibling with the ratio trigger disabled accumulates patches
// untouched.
func TestConsolidateRatioTrigger(t *testing.T) {
	m := maxFlexManager(t)
	var rec eventRecorder
	m.SetEventSink(rec.sink)
	m.SetConsolidateRatio(1.2)
	off := maxFlexManager(t)
	off.SetConsolidateRatio(0) // trigger disabled, patches accumulate

	// A guest with an on-grid period stays on the incremental path; its
	// off-stream deadlines widen the channel's demand row, whose capacity
	// outlives the guest, so the ratio crosses 1.2 when it leaves.
	guest := task.Task{Name: "ghost", C: 0.05, T: 6, D: 5.4321, Mode: task.NF, Channel: 0}
	for i := 0; i < 8; i++ {
		for _, mgr := range []*Manager{m, off} {
			if err := mgr.Admit(guest); err != nil {
				t.Fatalf("cycle %d: Admit: %v", i, err)
			}
			if err := mgr.Remove(guest.Name); err != nil {
				t.Fatalf("cycle %d: Remove: %v", i, err)
			}
		}
	}
	if rec.count(trace.Consolidated) == 0 {
		t.Fatal("ratio trigger at 1.2 never consolidated over 8 admit/remove cycles")
	}
	ev, _ := rec.last(trace.Consolidated)
	if ev.Mode != task.NF || ev.Channel != 0 {
		t.Fatalf("Consolidated event on %s/%d, want NF/0", ev.Mode, ev.Channel)
	}
	st := m.channels[task.NF][0]
	if r := st.prof.MemStats().Ratio(); r >= 1.2 {
		t.Fatalf("post-consolidation ratio = %g, want < 1.2", r)
	}
	if off.channels[task.NF][0].patches == 0 {
		t.Fatal("disabled sibling shows 0 patches: churn did not take the incremental path")
	}
	if got, want := m.Config(), off.Config(); got != want {
		t.Fatalf("consolidation changed the configuration: %+v vs %+v", got, want)
	}
	checkProfilesFresh(t, m, "after ratio consolidation")
	if err := m.CheckProfiles(); err != nil {
		t.Fatal(err)
	}
}

// TestEnvelopeFallbackEvent admits a guest whose period stretches the
// channel hyperperiod: the incremental patch bails to a full recompile
// in both directions and the manager reports each bailout to the event
// sink, while a twin-period guest stays silent.
func TestEnvelopeFallbackEvent(t *testing.T) {
	m := maxFlexManager(t)
	var rec eventRecorder
	m.SetEventSink(rec.sink)

	// tau5 owns NF channel 3 with T = 24; a twin-period guest merges
	// into the existing grid without any fallback.
	twin := task.Task{Name: "twin", C: 0.1, T: 24, D: 24, Mode: task.NF, Channel: 3}
	if err := m.Admit(twin); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(twin.Name); err != nil {
		t.Fatal(err)
	}
	if n := rec.count(trace.EnvelopeFallback); n != 0 {
		t.Fatalf("twin-period round trip emitted %d fallback events, want 0", n)
	}

	// T = 7 against tau5's T = 24 stretches the hyperperiod to 168 on
	// admit and shrinks it back on remove: one fallback each way.
	stretch := task.Task{Name: "stretch", C: 0.1, T: 7, D: 7, Mode: task.NF, Channel: 3}
	if err := m.Admit(stretch); err != nil {
		t.Fatal(err)
	}
	if n := rec.count(trace.EnvelopeFallback); n != 1 {
		t.Fatalf("stretching admit emitted %d fallback events, want 1", n)
	}
	ev, _ := rec.last(trace.EnvelopeFallback)
	if ev.Mode != task.NF || ev.Channel != 3 {
		t.Fatalf("fallback event on %s/%d, want NF/3", ev.Mode, ev.Channel)
	}
	if err := m.Remove(stretch.Name); err != nil {
		t.Fatal(err)
	}
	if n := rec.count(trace.EnvelopeFallback); n != 2 {
		t.Fatalf("stretch round trip emitted %d fallback events, want 2", n)
	}
	if err := m.CheckProfiles(); err != nil {
		t.Fatal(err)
	}
}
