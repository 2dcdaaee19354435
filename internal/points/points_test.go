package points

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/task"
)

func TestFixedPriorityNoHigherPriority(t *testing.T) {
	got := FixedPriority(nil, 10)
	if len(got) != 1 || got[0] != 10 {
		t.Errorf("schedP with no hp tasks = %v, want [10]", got)
	}
}

func TestFixedPriorityClassicExample(t *testing.T) {
	// hp = {T=3, T=4}, D = 10: points are multiples of 3 and 4 below 10
	// reachable by the recursion, plus 10 itself.
	hp := task.Set{
		{Name: "a", C: 1, T: 3, D: 3},
		{Name: "b", C: 1, T: 4, D: 4},
	}
	got := FixedPriority(hp, 10)
	// P_2(10) = P_1(8) ∪ P_1(10); P_1(8)={6,8}? ⌊8/3⌋·3=6 → P_0(6)∪P_0(8);
	// P_1(10)={9,10}. So {6, 8, 9, 10}.
	want := []float64{6, 8, 9, 10}
	assertEqual(t, got, want)
}

func TestFixedPrioritySortedUnique(t *testing.T) {
	hp := task.Set{
		{T: 2}, {T: 4}, {T: 8},
	}
	got := FixedPriority(hp, 16)
	if !sort.Float64sAreSorted(got) {
		t.Error("points must be sorted")
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Error("points must be unique")
		}
	}
	for _, p := range got {
		if p <= 0 || p > 16 {
			t.Errorf("point %g outside (0, 16]", p)
		}
	}
}

func TestFixedPriorityAlwaysContainsDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(5)
		hp := make(task.Set, n)
		for i := range hp {
			hp[i] = task.Task{T: float64(rng.Intn(20) + 1)}
		}
		d := float64(rng.Intn(50) + 1)
		got := FixedPriority(hp, d)
		if len(got) == 0 || got[len(got)-1] != d {
			t.Fatalf("schedP(%v, %g) = %v: must contain the deadline", hp, d, got)
		}
	}
}

func TestFixedPrioritySubsetOfMultiples(t *testing.T) {
	// Every point except the deadline itself must be a multiple of some
	// higher-priority period.
	hp := task.Set{{T: 3}, {T: 7}, {T: 11}}
	d := 40.0
	for _, p := range FixedPriority(hp, d) {
		if p == d {
			continue
		}
		ok := false
		for _, h := range hp {
			if math.Mod(p, h.T) == 0 {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("point %g is neither the deadline nor a period multiple", p)
		}
	}
}

func TestDeadlinesImplicit(t *testing.T) {
	s := task.Set{
		{Name: "a", C: 1, T: 4, D: 4},
		{Name: "b", C: 1, T: 6, D: 6},
	}
	got := mustDeadlines(t, s, 12)
	want := []float64{4, 6, 8, 12}
	assertEqual(t, got, want)
}

func TestDeadlinesConstrained(t *testing.T) {
	s := task.Set{{Name: "a", C: 1, T: 10, D: 3}}
	got := mustDeadlines(t, s, 25)
	want := []float64{3, 13, 23}
	assertEqual(t, got, want)
}

func TestDeadlinesPaperSet(t *testing.T) {
	s := task.PaperTaskSet().ByMode(task.FT)
	got := mustDeadlines(t, s, 60)
	// Periods 12, 15, 20, 30 with implicit deadlines up to 60.
	want := []float64{12, 15, 20, 24, 30, 36, 40, 45, 48, 60}
	assertEqual(t, got, want)
}

func TestDeadlinesEmpty(t *testing.T) {
	if got := mustDeadlines(t, nil, 100); len(got) != 0 {
		t.Errorf("Deadlines(nil) = %v, want empty", got)
	}
}

func TestDeadlinesRejectsNonPositivePeriod(t *testing.T) {
	// A task with T ≤ 0 has a deadline stream that never advances; the
	// old map-based implementation looped forever here.
	for _, T := range []float64{0, -4} {
		s := task.Set{{Name: "bad", C: 1, T: T, D: 3}}
		if _, err := Deadlines(s, 100); err == nil {
			t.Errorf("Deadlines with T = %g: want error, got none", T)
		}
	}
}

func TestDeadlinesRejectsOverlongStream(t *testing.T) {
	// 10^11 deadlines: the bound must reject them before allocating.
	s := task.Set{{Name: "a", C: 1, T: 10, D: 10}, {Name: "b", C: 1, T: 1e12, D: 1e12}}
	if n := StreamLen(s, 1e12); CheckStreamLen(n, 1e12) == nil {
		t.Fatalf("StreamLen = %g passes the bound", n)
	}
	if _, err := Deadlines(s, 1e12); err == nil {
		t.Fatal("Deadlines over 10^11 points: want error, got none")
	}
	// One point more than the bound is rejected, the bound itself is not.
	one := task.Set{{Name: "c", C: 1, T: 1, D: 1}}
	if got := mustDeadlines(t, one, MaxStream); len(got) != MaxStream {
		t.Errorf("Deadlines up to MaxStream: %d points, want %d", len(got), MaxStream)
	}
	if _, err := Deadlines(one, MaxStream+1); err == nil {
		t.Error("Deadlines up to MaxStream+1: want error, got none")
	}
}

func TestDeadlinesMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(6) + 1
		s := make(task.Set, n)
		for i := range s {
			T := float64(rng.Intn(20) + 1)
			d := float64(rng.Intn(int(T))) + 1
			s[i] = task.Task{T: T, D: d}
		}
		horizon := float64(rng.Intn(200) + 1)
		got := mustDeadlines(t, s, horizon)
		// Reference: the original hash-and-sort construction.
		seen := make(map[float64]struct{})
		for _, tk := range s {
			for k := 0; ; k++ {
				dl := float64(k)*tk.T + tk.D
				if dl > horizon {
					break
				}
				if dl > 0 {
					seen[dl] = struct{}{}
				}
			}
		}
		want := make([]float64, 0, len(seen))
		for v := range seen {
			want = append(want, v)
		}
		sort.Float64s(want)
		if len(got) != len(want) {
			t.Fatalf("set %v horizon %g: got %v, want %v", s, horizon, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("set %v horizon %g: got %v, want %v", s, horizon, got, want)
			}
		}
	}
}

func TestFixedPriorityMatchesRecursiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(6)
		hp := make(task.Set, n)
		for i := range hp {
			hp[i] = task.Task{T: float64(rng.Intn(25) + 1)}
		}
		d := float64(rng.Intn(60) + 1)
		got := FixedPriority(hp, d)
		// Reference: the original exponential recursion with map dedup.
		seen := make(map[float64]struct{})
		var rec func(j int, p float64)
		rec = func(j int, p float64) {
			if p <= 0 {
				return
			}
			if j == 0 {
				seen[p] = struct{}{}
				return
			}
			rec(j-1, math.Floor(p/hp[j-1].T)*hp[j-1].T)
			rec(j-1, p)
		}
		rec(len(hp), d)
		want := make([]float64, 0, len(seen))
		for v := range seen {
			want = append(want, v)
		}
		sort.Float64s(want)
		if len(got) != len(want) {
			t.Fatalf("hp %v d %g: got %v, want %v", hp, d, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("hp %v d %g: got %v, want %v", hp, d, got, want)
			}
		}
	}
}

func mustDeadlines(t *testing.T, s task.Set, horizon float64) []float64 {
	t.Helper()
	got, err := Deadlines(s, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestDenseGrid(t *testing.T) {
	got := DenseGrid(1.0, 0.25)
	want := []float64{0.25, 0.5, 0.75, 1.0}
	assertEqual(t, got, want)
	got = DenseGrid(1.1, 0.5)
	want = []float64{0.5, 1.0, 1.1}
	assertEqual(t, got, want)
	if DenseGrid(0, 0.5) != nil || DenseGrid(1, 0) != nil {
		t.Error("degenerate grids should be nil")
	}
	// Tiny horizon still yields the horizon itself.
	got = DenseGrid(0.1, 0.5)
	want = []float64{0.1}
	assertEqual(t, got, want)
}

func assertEqual(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestTaskDeadlinesMatchesDeadlines pins the bit-identity contract the
// incremental profile layer relies on: a single task's stream is exactly
// the Deadlines of its singleton set, and merging per-task streams
// reproduces the k-way merged set.
func TestTaskDeadlinesMatchesDeadlines(t *testing.T) {
	tasks := task.Set{
		{Name: "p", C: 1, T: 4, D: 3},
		{Name: "q", C: 1, T: 6, D: 6},
		{Name: "r", C: 1, T: 10, D: 2.5},
	}
	const horizon = 60
	merged := []float64(nil)
	for _, tk := range tasks {
		stream := TaskDeadlines(tk, horizon)
		single := mustDeadlines(t, task.Set{tk}, horizon)
		if len(stream) != len(single) {
			t.Fatalf("%s: stream %v, Deadlines %v", tk.Name, stream, single)
		}
		for i := range stream {
			if stream[i] != single[i] {
				t.Fatalf("%s: stream[%d] = %x, Deadlines = %x", tk.Name, i, stream[i], single[i])
			}
		}
		merged = MergeUnique(merged, stream)
	}
	want := mustDeadlines(t, tasks, horizon)
	if len(merged) != len(want) {
		t.Fatalf("merged %v, want %v", merged, want)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Fatalf("merged[%d] = %x, want %x", i, merged[i], want[i])
		}
	}
	if TaskDeadlines(task.Task{T: 0, D: 1}, 10) != nil {
		t.Error("non-positive period should yield nil stream")
	}
	if got := TaskDeadlines(task.Task{T: 5, D: 12}, 10); len(got) != 0 {
		t.Errorf("deadline beyond horizon should yield empty stream, got %v", got)
	}
}

// TestTaskDeadlinesRandom cross-checks the stream generator against
// Deadlines on random constrained-deadline tasks.
func TestTaskDeadlinesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		tk := task.Task{
			T: []float64{4, 5, 6, 7.5, 10, 12}[rng.Intn(6)],
		}
		tk.D = tk.T * (0.3 + 0.7*rng.Float64())
		stream := TaskDeadlines(tk, 120)
		single := mustDeadlines(t, task.Set{tk}, 120)
		if len(stream) != len(single) {
			t.Fatalf("T=%g D=%g: stream %v, Deadlines %v", tk.T, tk.D, stream, single)
		}
		for i := range stream {
			if stream[i] != single[i] {
				t.Fatalf("T=%g D=%g: stream[%d] = %x, Deadlines = %x", tk.T, tk.D, i, stream[i], single[i])
			}
		}
	}
}

// TestFixedPriorityFloorDirection confirms the rounding direction of
// the ⌊t/T⌋·T lift: at float-rounded steps t = k·T, one ulp below
// them, and for random four-decimal periods and deadlines, no
// scheduling point lands above the deadline. A rounding error can only
// drop a test point, which is pessimistic: every point in (0, d] is a
// sound place to test. Unclamped, ⌊d/T⌋·T is one ulp above d for
// T = 76.0954, d = 86292.18359999999.
func TestFixedPriorityFloorDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	fourDecimal := func(max int) float64 { return float64(1+rng.Intn(max)) / 1e4 }
	inRange := func(hp task.Set, d float64) {
		t.Helper()
		for _, p := range FixedPriority(hp, d) {
			if !(p > 0 && p <= d) {
				t.Fatalf("schedP(%v, %v) holds %v outside (0, d]", hp, d, p)
			}
		}
	}
	inRange(task.Set{{T: 76.0954}}, 86292.18359999999)
	for trial := 0; trial < 100000; trial++ {
		T := fourDecimal(1200000)
		step := Deadline(1+rng.Intn(1000), T, 0)
		inRange(task.Set{{T: T}}, step)
		inRange(task.Set{{T: T}}, math.Nextafter(step, 0))
	}
	for trial := 0; trial < 2000; trial++ {
		hp := make(task.Set, 1+rng.Intn(4))
		for i := range hp {
			hp[i].T = fourDecimal(400000)
		}
		inRange(hp, fourDecimal(1200000))
	}
}

// TestAppendDeadlines checks that AppendDeadlines appends exactly
// Deadlines' points after dst's own, on sets below and above the
// merge's stack cursors, and returns dst unchanged on error.
func TestAppendDeadlines(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	prefix := []float64{-2, -1}
	for trial := 0; trial < 200; trial++ {
		s := make(task.Set, 1+rng.Intn(2*mergeCursors))
		for i := range s {
			T := float64(rng.Intn(20) + 1)
			s[i] = task.Task{T: T, D: float64(rng.Intn(int(T))) + 1}
		}
		horizon := float64(rng.Intn(200) + 1)
		want := mustDeadlines(t, s, horizon)
		got, err := AppendDeadlines(append([]float64(nil), prefix...), s, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, append(append([]float64(nil), prefix...), want...)) {
			t.Fatalf("set %v horizon %g: got %v, want %v after %v", s, horizon, got, want, prefix)
		}
	}
	bad := task.Set{{Name: "bad", C: 1, T: 0, D: 3}}
	if got, err := AppendDeadlines(prefix, bad, 100); err == nil || len(got) != len(prefix) {
		t.Errorf("AppendDeadlines with T = 0: %v, %v; want an error and dst unchanged", got, err)
	}
}
