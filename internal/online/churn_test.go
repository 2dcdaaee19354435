package online

import (
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/metrics"
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

// offGridGuest is an off-grid guest for the paper's NF/0, which holds
// tau1 alone (T = 6, so one deadline per hyperperiod): T = 2 keeps the
// hyperperiod, so every admit and remove takes the incremental path,
// and its deadlines 1.4321, 3.4321 and 5.4321 outnumber tau1's by 3 to
// 1. Its departure leaves the row's capacity at 4 times its length,
// which is where the profile trims it.
var offGridGuest = task.Task{Name: "ghost", C: 0.05, T: 2, D: 1.4321, Mode: task.NF, Channel: 0}

// TestRowTrimOnDrain churns offGridGuest through the manager: every
// departure trims the widened demand row to exactly its length, so the
// channel's memory ratio stays below analysis.MaxMemRatio with no
// rebuild, the patch counter grows monotonically, and every cycle ends
// at the initial configuration with CheckProfiles and Verify passing.
func TestRowTrimOnDrain(t *testing.T) {
	m := maxFlexManager(t)
	var rec eventRecorder
	m.SetEventSink(rec.sink)
	cfg0 := m.Config()
	st := m.channels[task.NF][0]
	for i := 0; i < 8; i++ {
		if err := m.Admit(offGridGuest); err != nil {
			t.Fatalf("cycle %d: Admit: %v", i, err)
		}
		if ms := st.prof.MemStats(); ms.LiveCells != 4 || ms.Ratio() >= analysis.MaxMemRatio {
			t.Fatalf("cycle %d: admitted row %d cells, ratio %g; want 4 cells below %d", i, ms.LiveCells, ms.Ratio(), analysis.MaxMemRatio)
		}
		if err := m.Remove(offGridGuest.Name); err != nil {
			t.Fatalf("cycle %d: Remove: %v", i, err)
		}
		if ms := st.prof.MemStats(); ms.LiveCells != 1 || ms.PinnedCells != 1 {
			t.Fatalf("cycle %d: drained row keeps %d cells for %d, want it trimmed to 1", i, ms.PinnedCells, ms.LiveCells)
		}
		if got := st.patches; got != 2*(i+1) {
			t.Fatalf("cycle %d: patch counter %d, want %d", i, got, 2*(i+1))
		}
		if m.Config() != cfg0 {
			t.Fatalf("cycle %d: configuration %+v, want %+v", i, m.Config(), cfg0)
		}
		if err := m.CheckProfiles(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("cycle %d: Verify: %v", i, err)
		}
	}
	if n := rec.count(trace.EnvelopeFallback); n != 0 {
		t.Fatalf("churn fell back to a full recompile %d times, want 0", n)
	}
	checkProfilesFresh(t, m, "after the churn")
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

func TestRejectedFallbacksCounted(t *testing.T) {
	// The whale's T = 7 stretches FS/1's hyperperiod, so its patch falls
	// back to a full recompile; its slot overflows the period, and the
	// undo that rejects it falls back too. Both recompiles are counted
	// and reported, although nothing was committed.
	m := maxFlexManager(t)
	mt := NewMetrics(metrics.New())
	m.SetMetrics(mt)
	var rec eventRecorder
	m.SetEventSink(rec.sink)
	whale := task.Task{Name: "whale", C: 3, T: 7, D: 7, Mode: task.FS, Channel: 1}
	if err := m.Admit(whale); err == nil {
		t.Fatal("the whale should be rejected")
	}
	if n := mt.EnvelopeFallbacks.Value(); n != 2 {
		t.Errorf("the rejected whale counted %d fallbacks, want 2", n)
	}
	if n := rec.count(trace.EnvelopeFallback); n != 2 {
		t.Errorf("the rejected whale emitted %d fallback events, want 2", n)
	}
	if ev, _ := rec.last(trace.EnvelopeFallback); ev.Mode != task.FS || ev.Channel != 1 {
		t.Errorf("fallback event on %s/%d, want FS/1", ev.Mode, ev.Channel)
	}
	if err := m.CheckProfiles(); err != nil {
		t.Fatal(err)
	}
}
