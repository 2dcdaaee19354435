package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/online"
	"repro/internal/task"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	// 100 samples leave one beyond the p99 rank: refused.
	if v, ok := percentile(samples(100), 0.99); ok || v != 99 {
		t.Fatalf("p99 of 100 samples = %d, ok %v; want 99 refused", v, ok)
	}
	// 1000 samples leave exactly ten beyond it: reported.
	if v, ok := percentile(samples(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1000 samples = %d, ok %v; want 990 reported", v, ok)
	}
	if _, ok := percentile(samples(999), 0.99); ok {
		t.Fatal("p99 of 999 samples (9 beyond) reported")
	}
	if v, ok := percentile(samples(101), 0.50); !ok || v != 51 {
		t.Fatalf("p50 of 101 samples = %d, ok %v", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestLatencyGroups(t *testing.T) {
	lat := make([]int64, 2500)
	for i := range lat {
		lat[i] = int64(len(lat) - i) // descending: each group gets sorted
	}
	// Segments of 500 ops: groups close at 1000 and 2000; the 500-op
	// tail joins the last group.
	groups := latencyGroups(lat, []int{500, 1000, 1500, 2000, 2500})
	if len(groups) != 2 || len(groups[0]) != 1000 || len(groups[1]) != 1500 {
		t.Fatalf("group sizes %d", len(groups))
	}
	for _, g := range groups {
		for i := 1; i < len(g); i++ {
			if g[i-1] > g[i] {
				t.Fatal("group not sorted")
			}
		}
	}
	// p50s are 2000 (first group, values 1501..2500) and 750 (second,
	// values 1..1500).
	if v, ok := groupPercentiles(groups, 0.5); !ok || len(v) != 2 || v[0] != 2000 || v[1] != 750 {
		t.Fatalf("group p50s = %v, ok %v", v, ok)
	}
	// One segment shorter than a group: a single group of all ops, whose
	// p99 is refused when fewer than ten samples lie beyond it.
	short := latencyGroups(make([]int64, 500), []int{500})
	if len(short) != 1 {
		t.Fatalf("%d groups for 500 ops", len(short))
	}
	if _, ok := groupPercentiles(short, 0.99); ok {
		t.Fatal("p99 of 500 ops reported")
	}
}

func TestSlowQuantileReadings(t *testing.T) {
	// Nearest rank: of ten values, the 0.2-quantile is the second
	// smallest and the 0.8-quantile the eighth; the input is not sorted
	// in place.
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quantile(v, 0.2); got != 2 {
		t.Fatalf("0.2-quantile = %g, want 2", got)
	}
	if got := quantile(v, 0.8); got != 8 {
		t.Fatalf("0.8-quantile = %g, want 8", got)
	}
	if v[0] != 10 {
		t.Fatal("quantile sorted its input")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("quantile of nothing = %g", got)
	}
	// Two segments of five ops, each reversed: the p50 of each is its
	// third-smallest latency.
	lat := []int64{5, 4, 3, 2, 1, 50, 40, 30, 20, 10}
	got := segmentPercentiles(lat, []int{5, 10}, 0.5)
	if len(got) != 2 || got[0] != 3 || got[1] != 30 {
		t.Fatalf("segment p50s = %v, want [3 30]", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1, name: spAdmit},    // 0: call
		{start: 10, end: 30, parent: 0, name: spPatch},     // 1: child 20
		{start: 40, end: 55, parent: 0, name: spPatch},     // 2: child 15
		{start: 200, end: 210, parent: -1, name: spRemove}, // 3: call
		{start: 300, end: 330, parent: 3, name: spPatch},   // 4: mirrored child longer than its call
		{start: 400, end: 450, parent: -1, name: spRemove}, // 5: call without children
		{start: 500, end: 507, parent: -1, name: spWhatIf}, // 6
		{start: 600, end: 601, parent: 6, name: spPatch},   // 7
		{start: 610, end: 612, parent: 6, name: spPatch},   // 8
		{start: 700, end: 800, parent: -1, name: spRun},
	}
	s := summarize(spans)
	if got := s[spAdmit]; got.count != 1 || got.totalNs != 100 || got.childNs != 35 || got.selfNs != 65 {
		t.Fatalf("admit stats %+v, want total 100 child 35 self 65", got)
	}
	// The mirrored child outlasts its call: self time floors at zero.
	if got := s[spRemove]; got.count != 2 || got.totalNs != 60 || got.childSeen != 1 || got.selfNs != 0 {
		t.Fatalf("remove stats %+v", got)
	}
	if got := s[spWhatIf].selfMeanUs(); got != 0.004 {
		t.Fatalf("what-if self mean %g µs, want 0.004", got)
	}
	if got := s[spPatch]; got.count != 5 || got.totalNs != 20+15+30+1+2 {
		t.Fatalf("patch stats %+v", got)
	}
	if got := selfTime(10, 3); got != 7 {
		t.Fatalf("selfTime(10, 3) = %d", got)
	}

	// Folding the buffer at op boundaries adds up to one summary.
	tr := newTracer(4 + maxSpansPerOp)
	for op := 0; op < 50; op++ {
		tr.op()
		p := tr.begin(spAdmit, uint32(op), -1)
		c := tr.begin(spPatch, uint32(op), p)
		tr.end(c)
		tr.end(p)
	}
	got := tr.stats()
	if got[spAdmit].count != 50 || got[spPatch].count != 50 || got[spAdmit].childSeen != 50 || tr.dropped != 0 {
		t.Fatalf("folded stats %+v / %+v, dropped %d", got[spAdmit], got[spPatch], tr.dropped)
	}
	if got[spAdmit].selfNs+got[spAdmit].childNs != got[spAdmit].totalNs {
		t.Fatalf("self %d + child %d != total %d", got[spAdmit].selfNs, got[spAdmit].childNs, got[spAdmit].totalNs)
	}
}

func TestClassify(t *testing.T) {
	busy := &online.Rejection{Busy: true}
	for _, c := range []struct {
		err  error
		want outcome
	}{
		{nil, outOK},
		{errors.New("boom"), outFailed},
		{fmt.Errorf("sim: %w", errors.New("untyped")), outFailed},
		{&online.Rejection{}, outRejected},
		{fmt.Errorf("wrapped: %w", online.ErrRejected), outRejected},
		{busy, outFailed},
		{fmt.Errorf("wrapped: %w", online.ErrBusy), outFailed},
	} {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// A capacity rejection from a real manager is an outcome; the op that
// produced it is not failed.
func TestRejectionIsNotFailure(t *testing.T) {
	a := tinyAdmission(t, 1)
	whale := task.Task{Name: "whale", C: 50, T: 60, D: 60, Mode: task.FT}
	err := a.m.AdmitBatch([]task.Task{whale})
	if err == nil || classify(err) != outRejected {
		t.Fatalf("whale admission: %v (outcome %d), want a typed rejection", err, classify(err))
	}
	if err := a.m.RemoveBatch([]string{"nobody"}); classify(err) != outRejected {
		t.Fatalf("removing an unknown task: %v", err)
	}
}

func tinyAdmissionSpec() admissionSpec {
	s := admitChurnSpec(1)
	s.residents, s.preload, s.warmup, s.ops = 40, 10, 60, 240
	return s
}

func tinyAdmission(t *testing.T, seed int64) *admission {
	t.Helper()
	a, err := newAdmission(tinyAdmissionSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.setup(nil); err != nil {
		t.Fatal(err)
	}
	return a
}

func tinyRunners(t *testing.T, seed int64) map[string]runner {
	t.Helper()
	ch, err := newAdmission(tinyAdmissionSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	ds := designSpecFor(1)
	ds.sets, ds.warmup, ds.ops = 8, 3, 16
	dsp, err := newDesignSpace(ds, seed)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]runner{"admit_churn": ch, "design_space": dsp}
}

func TestGeneratorDeterminism(t *testing.T) {
	inputs := func(w runner) any {
		switch w := w.(type) {
		case *admission:
			return []any{w.residents, w.shapes, w.script}
		case *designSpace:
			return []any{w.sets, w.adds, w.removes}
		}
		t.Fatalf("unknown runner %T", w)
		return nil
	}
	a, b, c := tinyRunners(t, 7), tinyRunners(t, 7), tinyRunners(t, 8)
	for name := range a {
		if !reflect.DeepEqual(inputs(a[name]), inputs(b[name])) {
			t.Errorf("%s: one seed generated different inputs", name)
		}
		if reflect.DeepEqual(inputs(a[name]), inputs(c[name])) {
			t.Errorf("%s: two seeds generated identical inputs", name)
		}
	}
}

// Only the timed traffic depends on the seed: the residents and the
// setup inputs are the same for every seed, so every seed sets up the
// same way.
func TestSetupInputsIgnoreSeed(t *testing.T) {
	a, b := tinyRunners(t, 7), tinyRunners(t, 8)
	ca, cb := a["admit_churn"].(*admission), b["admit_churn"].(*admission)
	w := ca.spec.warmup
	if !reflect.DeepEqual(ca.residents, cb.residents) || !reflect.DeepEqual(ca.shapes[:shapePool], cb.shapes[:shapePool]) ||
		!reflect.DeepEqual(ca.script[:w], cb.script[:w]) {
		t.Error("admit_churn: setup inputs depend on the seed")
	}
	da, db := a["design_space"].(*designSpace), b["design_space"].(*designSpace)
	n := da.spec.warmup
	if !reflect.DeepEqual(da.sets[:n], db.sets[:n]) || !reflect.DeepEqual(da.adds[:n], db.adds[:n]) {
		t.Error("design_space: warm-up sets depend on the seed")
	}
	for name := range a {
		d7, err := a[name].setup(nil)
		if err != nil {
			t.Fatal(err)
		}
		d8, err := b[name].setup(nil)
		if err != nil {
			t.Fatal(err)
		}
		if d7 != d8 {
			t.Errorf("%s: warm-up digests %x and %x differ between seeds", name, d7, d8)
		}
	}
}

// The listed workloads' checkers pass on the current program, and a
// traced pass reproduces the untraced digest.
func TestTinyRunsCheckOut(t *testing.T) {
	for _, name := range []string{"admit_churn", "design_space"} {
		t.Run(name, func(t *testing.T) {
			var digests []digest
			for _, traced := range []bool{false, true} {
				w := tinyRunners(t, 1)[name]
				if _, err := w.setup(nil); err != nil {
					t.Fatal(err)
				}
				if err := w.check(); err != nil {
					t.Fatalf("after setup: %v", err)
				}
				var tr *tracer
				if traced {
					tr = newTracer(1 << 10)
				}
				p, err := timedPass(w, tr, nil)
				if err != nil {
					t.Fatal(err)
				}
				if p.failed != 0 || p.ops != w.ops() {
					t.Fatalf("%d of %d ops failed", p.failed, p.ops)
				}
				if p.accept <= 0 || p.accept > 1 {
					t.Fatalf("accept ratio %g", p.accept)
				}
				if tr != nil {
					s := tr.stats()
					vals := w.layers(p.ops, &s)
					for k, v := range vals {
						if v < 0 {
							t.Errorf("layer metric %s = %g", k, v)
						}
					}
				}
				digests = append(digests, p.digest)
			}
			if digests[0] != digests[1] {
				t.Fatalf("traced digest %x differs from untraced %x", digests[1], digests[0])
			}
		})
	}
}

// The admission checker catches a state that disagrees with the
// client: a lost guest, and a counter that drifted from the tallies.
func TestAdmissionCheckerCatchesDrift(t *testing.T) {
	a := tinyAdmission(t, 2)
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	a.record = a.record[:len(a.record)-1]
	if err := a.check(); err == nil || !strings.Contains(err.Error(), "client expects") {
		t.Fatalf("lost guest not caught: %v", err)
	}
	a = tinyAdmission(t, 2)
	a.tally.admitBatches++
	if err := a.check(); err == nil || !strings.Contains(err.Error(), "online.admit.batches") {
		t.Fatalf("counter drift not caught: %v", err)
	}
}

// A plan that does not reproduce the first plan of its set is caught.
func TestDesignCheckerCatchesDivergence(t *testing.T) {
	w := tinyRunners(t, 1)["design_space"].(*designSpace)
	if _, err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	lat := make([]int64, 16)
	d := newDigest()
	w.run(0, 1, lat, &d, nil) // op 0 plans the first seeded set
	if err := w.check(); err != nil {
		t.Fatal(err)
	}
	k := w.spec.warmup
	if !w.known[k] {
		t.Fatalf("op 0 did not plan set %d", k)
	}
	w.expect[k]++
	w.run(8, 9, lat, &d, nil) // op 8 plans it again
	if err := w.check(); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("divergent plan not caught: %v", err)
	}
}

// A design that fails Verify is a failed op and an incorrect run; an
// infeasible set is neither.
func TestDesignFailureAccounting(t *testing.T) {
	w := tinyRunners(t, 1)["design_space"].(*designSpace)
	if _, err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	k := w.spec.warmup // a seeded set not planned yet
	if w.record(0, k, &plan{set: k, verdict: planInfeasible}) || w.check() != nil {
		t.Fatal("an infeasible set counted as a failure")
	}
	bad := &plan{set: k + 1, verdict: planFailed, wrong: true, err: errors.New("design fails Verify")}
	if !w.record(1, k+1, bad) {
		t.Fatal("a design that fails Verify is not a failed op")
	}
	if err := w.check(); err == nil || !strings.Contains(err.Error(), "Verify") {
		t.Fatalf("a design that fails Verify passed the check: %v", err)
	}
}

// design_space keeps the state of its last verified plans, and only
// those: the plans awaiting a check hold none.
func TestDesignKeepsRecentState(t *testing.T) {
	w := tinyRunners(t, 1)["design_space"].(*designSpace)
	if _, err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	lat := make([]int64, 16)
	d := newDigest()
	w.run(0, 16, lat, &d, nil)
	if w.nKept == 0 || w.kept[0] == nil || w.kept[0].cp == nil || w.kept[0].res == nil {
		t.Fatalf("no verified plan state kept (%d kept)", w.nKept)
	}
	for _, p := range w.pending {
		if p.state != nil {
			t.Fatalf("pending plan of set %d holds its state", p.set)
		}
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the program
// runs and reports.
func TestBenchmarkSpecMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := newRunner(w.Name, 1, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
