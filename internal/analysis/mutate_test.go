package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/task"
)

// TestMutableChurnBitIdentical drives randomized in-place
// AddTasks/DropTasks batches on a thawed profile and asserts after
// every step that the profile is bit-identical to a fresh Compile of
// the surviving set, retained streams included — the same oracle the
// immutable churn test uses.
func TestMutableChurnBitIdentical(t *testing.T) {
	pool := churnPool()
	for _, alg := range []Alg{EDF, RM, DM} {
		t.Run(alg.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(alg) + 23))
			base, err := Compile(nil, alg)
			if err != nil {
				t.Fatal(err)
			}
			pf := base.Thawed()
			if !pf.Exclusive() {
				t.Fatal("Thawed profile not exclusive")
			}
			var live task.Set
			for step := 0; step < 250; step++ {
				// Batch of 1..3 coherent ops: admit absent tasks or
				// remove present ones.
				tk := pool[rng.Intn(len(pool))]
				idx := -1
				for i := range live {
					if live[i].Name == tk.Name {
						idx = i
						break
					}
				}
				var stage string
				if idx < 0 {
					stage = "admit " + tk.Name
					if err := pf.AddTasks([]task.Task{tk}); err != nil {
						t.Fatalf("step %d (%s): %v", step, stage, err)
					}
					live = append(live, tk)
				} else {
					stage = "remove " + tk.Name
					if err := pf.DropTasks([]task.Task{tk}); err != nil {
						t.Fatalf("step %d (%s): %v", step, stage, err)
					}
					live = append(append(task.Set(nil), live[:idx]...), live[idx+1:]...)
				}
				fresh, err := Compile(live, alg)
				if err != nil {
					t.Fatalf("step %d (%s): oracle Compile: %v", step, stage, err)
				}
				assertProfileIdentical(t, stage, pf, fresh)
				p := 0.5 + rng.Float64()*5
				if got, want := pf.MinQ(p), fresh.MinQ(p); got != want {
					t.Fatalf("step %d (%s): MinQ(%g) = %x, fresh = %x", step, stage, p, got, want)
				}
			}
			if err := pf.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMutableRollbackBitIdentical checks the manager's rejection
// contract: AddTasks followed by DropTasks of the same batch restores
// the profile bit for bit, for batches that merge points, share
// points, and fall back on hyperperiod changes.
func TestMutableRollbackBitIdentical(t *testing.T) {
	pool := churnPool()
	base := task.Set{pool[0], pool[2], pool[3]}
	for _, alg := range []Alg{EDF, DM} {
		t.Run(alg.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(alg) + 41))
			pf, err := CompileMutable(base, alg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Compile(base, alg)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 120; step++ {
				k := 1 + rng.Intn(3)
				batch := make([]task.Task, 0, k)
				perm := rng.Perm(len(pool))
				for _, i := range perm[:k] {
					tk := pool[i]
					tk.Name = tk.Name + "-trial"
					batch = append(batch, tk)
				}
				if err := pf.AddTasks(batch); err != nil {
					t.Fatalf("step %d: add: %v", step, err)
				}
				if err := pf.DropTasks(batch); err != nil {
					t.Fatalf("step %d: rollback: %v", step, err)
				}
				assertProfileIdentical(t, "rollback", pf, want)
			}
		})
	}
}

// TestUnsettledProfileLifecycle follows an EDF profile that the
// in-place patch left unsettled: Pairs and MemStats report the demand
// row MinQ scans without settling it, a thaw copies it unsettled, a
// what-if from it comes out settled and frozen without touching it,
// and every MinQ along the way is the naive oracle's, bit for bit.
func TestUnsettledProfileLifecycle(t *testing.T) {
	pool := churnPool()
	// Every period divides the base's hyperperiod, 20, so no patch falls
	// back to a recompile (which would come out settled).
	base, add, more := task.Set{pool[0], pool[2], pool[3]}, task.Set{pool[1], pool[8]}, task.Set{pool[6]}
	pf, err := CompileMutable(base, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.AddTasks(add); err != nil {
		t.Fatal(err)
	}
	live := append(slices.Clone(base), add...)
	minQMatches := func(stage string, pf *Profile, live task.Set) {
		t.Helper()
		for _, p := range lineagePeriods {
			want, err := MinQ(live, EDF, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := pf.MinQ(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: MinQ(%g) = %v, naive MinQ = %v", stage, p, got, want)
			}
		}
	}
	if !pf.unsettled {
		t.Fatal("an in-place EDF patch left the profile settled")
	}
	if n, ms := pf.Pairs(), pf.MemStats(); n != len(pf.w) || ms.LivePairs != n || !pf.unsettled {
		t.Fatalf("unsettled profile: Pairs %d and LivePairs %d, want the %d-point row, unsettled %v", n, ms.LivePairs, len(pf.w), pf.unsettled)
	}
	minQMatches("unsettled", pf, live)

	thawed := pf.Thawed()
	if !thawed.unsettled {
		t.Fatal("thawing an unsettled profile gave a settled copy")
	}
	if err := thawed.AddTasks(more); err != nil {
		t.Fatal(err)
	}
	minQMatches("thawed and patched", thawed, append(slices.Clone(live), more...))

	grown, err := pf.WithTasks(more)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Exclusive() || grown.unsettled {
		t.Fatalf("WithTasks result: exclusive %v, unsettled %v; want frozen and settled", grown.Exclusive(), grown.unsettled)
	}
	if !pf.unsettled {
		t.Fatal("WithTasks settled its receiver")
	}
	minQMatches("what-if", grown, append(slices.Clone(live), more...))
	minQMatches("what-if receiver", pf, live)

	fresh, err := Compile(live, EDF)
	if err != nil {
		t.Fatal(err)
	}
	assertProfileIdentical(t, "settled by Equal", pf, fresh)
	if pf.unsettled || pf.Pairs() != fresh.Pairs() {
		t.Fatalf("after Equal: unsettled %v, %d pairs; want settled with the fresh Compile's %d", pf.unsettled, pf.Pairs(), fresh.Pairs())
	}
	minQMatches("settled", pf, live)
}

// TestMutableErrors checks the mode guard and that a failed DropTasks
// leaves the profile untouched.
func TestMutableErrors(t *testing.T) {
	base := churnPool()[:3]
	pf, err := Compile(base, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.AddTasks(base[:1]); err == nil {
		t.Fatal("AddTasks on a non-exclusive profile should fail")
	}
	if err := pf.DropTasks(base[:1]); err == nil {
		t.Fatal("DropTasks on a non-exclusive profile should fail")
	}
	mu := pf.Thawed()
	ghost := task.Task{Name: "ghost", C: 0.1, T: 10, D: 10}
	if err := mu.DropTasks([]task.Task{base[0], ghost}); err == nil {
		t.Fatal("DropTasks with an absent task should fail")
	}
	assertProfileIdentical(t, "after failed drop", mu, pf)
	if err := mu.AddTasks([]task.Task{{Name: "bad", C: -1, T: 10, D: 10}}); err == nil {
		t.Fatal("AddTasks with an invalid task should fail")
	}
	assertProfileIdentical(t, "after failed add", mu, pf)
}

// dropCorrupted damages an exclusive EDF profile of churnPool's a, c
// and d at the stream point dl, a deadline of resident, with corrupt,
// then drops resident: the patch must notice, rebuild from scratch and
// count the fallback. The hyperperiod, 20, stays when a or c leaves, so
// no hyperperiod fallback hides the corruption path.
func dropCorrupted(t *testing.T, resident task.Task, dl float64, corrupt func(pf *Profile, at int)) {
	t.Helper()
	pool := churnPool()
	pf, err := CompileMutable(task.Set{pool[0], pool[2], pool[3]}, EDF)
	if err != nil {
		t.Fatal(err)
	}
	at, ok := slices.BinarySearch(pf.ts, dl)
	if !ok {
		t.Fatalf("deadline %g not in the stream", dl)
	}
	corrupt(pf, at)
	before := pf.Fallbacks()
	if err := pf.DropTasks([]task.Task{resident}); err != nil {
		t.Fatal(err)
	}
	if got := pf.Fallbacks(); got != before+1 {
		t.Fatalf("fallbacks %d after the drop, want %d", got, before+1)
	}
	if err := pf.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestDropRebuildsOnZeroedOwnerCount: the owner count of c's first
// deadline, c's alone, would fall below zero.
func TestDropRebuildsOnZeroedOwnerCount(t *testing.T) {
	c := churnPool()[2]
	dropCorrupted(t, c, c.D, func(pf *Profile, at int) { pf.owners[at] = 0 })
}

// TestDropRebuildsOnMissingStreamPoint: a departing deadline is not in
// the stream, once inside it (c's first deadline, 4) and once at its
// end (a's deadline at the horizon, 20), where the walk meets the
// first at a later point and the second only after the last one.
func TestDropRebuildsOnMissingStreamPoint(t *testing.T) {
	remove := func(pf *Profile, at int) {
		pf.ts = slices.Delete(pf.ts, at, at+1)
		pf.owners = slices.Delete(pf.owners, at, at+1)
		pf.w = slices.Delete(pf.w, at, at+1)
	}
	pool := churnPool()
	dropCorrupted(t, pool[2], pool[2].D, remove)
	dropCorrupted(t, pool[0], 20, remove)
}

// TestPatchEmptyStream patches a profile whose stream is empty: the
// task's period is a hair above its scaled value, so its deadline falls
// past the hyperperiod and the compiled stream has no points.
func TestPatchEmptyStream(t *testing.T) {
	hair := task.Task{Name: "hair", C: 0.1, T: 0.30000000001, D: 0.30000000001}
	guest := task.Task{Name: "guest", C: 0.1, T: 0.3, D: 0.2}
	pf, err := CompileMutable(task.Set{hair}, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if n := pf.MemStats().RetainedPoints; n != 0 {
		t.Fatalf("stream has %d points, want 0", n)
	}
	if err := pf.AddTasks([]task.Task{guest}); err != nil {
		t.Fatal(err)
	}
	grown, err := Compile(task.Set{hair, guest}, EDF)
	if err != nil {
		t.Fatal(err)
	}
	assertProfileIdentical(t, "admit onto an empty stream", pf, grown)
	if err := pf.DropTasks([]task.Task{guest}); err != nil {
		t.Fatal(err)
	}
	back, err := Compile(task.Set{hair}, EDF)
	if err != nil {
		t.Fatal(err)
	}
	assertProfileIdentical(t, "drop back to an empty stream", pf, back)
}

// Lineage op codes of FuzzProfileLineages. Every op starts with a
// lineage byte (which lineage it acts on) and an op byte; all but
// lineageThaw then read a batch-size byte (1–3 tasks) and one
// churnPool-index byte per task.
const (
	lineageThaw = iota // fork an exclusive copy (Thawed)
	lineageFork        // fork a frozen sibling (WithTasks of "-fork" tasks)
	lineageAdd         // admit the batch's absent tasks
	lineageDrop        // remove the batch's present tasks
	lineageOps
)

// maxLineages bounds how many lineages one input may fork.
const maxLineages = 6

// lineageSeed encodes, in FuzzProfileLineages' op format, the 120-step
// churn that a math/rand source seeded with seed drives: each step
// picks a lineage, then thaw-forks it (1 in 10), frozen-forks it with
// one task (1 in 10) or toggles one pool task in it, forks falling back
// to a toggle once maxLineages lineages exist.
func lineageSeed(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	pool := churnPool()
	var lins [][]string // live task names per lineage
	lins = append(lins, []string{pool[0].Name, pool[2].Name})
	var out []byte
	for step := 0; step < 120; step++ {
		li := rng.Intn(len(lins))
		switch op := rng.Intn(10); {
		case op == 0 && len(lins) < maxLineages:
			out = append(out, byte(li), lineageThaw)
			lins = append(lins, append([]string(nil), lins[li]...))
		case op == 1 && len(lins) < maxLineages:
			k := rng.Intn(len(pool))
			out = append(out, byte(li), lineageFork, 0, byte(k))
			lins = append(lins, append(append([]string(nil), lins[li]...), pool[k].Name+"-fork"))
		default:
			k := rng.Intn(len(pool))
			at := slices.Index(lins[li], pool[k].Name)
			if at < 0 {
				out = append(out, byte(li), lineageAdd, 0, byte(k))
				lins[li] = append(lins[li], pool[k].Name)
			} else {
				out = append(out, byte(li), lineageDrop, 0, byte(k))
				lins[li] = slices.Delete(lins[li], at, at+1)
			}
		}
	}
	return out
}

// FuzzProfileLineages is the lineage isolation property: the input
// drives interleaved churn across lineages of one root profile — frozen
// lineages patched through WithTasks/WithoutTasks, exclusive (thawed)
// lineages patched in place by AddTasks/DropTasks, and thaw or frozen
// forks taken from either kind — under EDF, RM and DM, with every
// lineage compared to an independent fresh Compile after every step.
// Any state leaking between lineages (a shared stream, demand row or
// pruned-pair slice written in place, observed across a fork) shows up
// as a divergence from that lineage's own oracle. `go test` replays the
// seed corpus; `go test -fuzz=FuzzProfileLineages` explores mutations.
func FuzzProfileLineages(f *testing.F) {
	// The two randomized schedules the property has always run.
	f.Add(lineageSeed(int64(EDF) + 97))
	f.Add(lineageSeed(int64(DM) + 97))
	// Three-task batches: a widening admit on the root, a frozen fork of
	// three, a thaw of that fork, then drops on both.
	f.Add([]byte{
		0, lineageAdd, 2, 4, 6, 7,
		0, lineageFork, 2, 1, 3, 8,
		1, lineageThaw,
		1, lineageDrop, 2, 0, 4, 6,
		2, lineageDrop, 2, 2, 7, 8,
		0, lineageDrop, 2, 0, 2, 4,
	})
	f.Fuzz(runLineages)
}

// lineagePeriods are the periods at which runLineages compares every
// lineage's MinQ with the naive oracle.
var lineagePeriods = []float64{0.5, 2, 2.966, 7}

// runLineages is FuzzProfileLineages' property over one input.
func runLineages(t *testing.T, data []byte) {
	if len(data) > 1024 {
		data = data[:1024]
	}
	pool := churnPool()
	type lineage struct {
		pf   *Profile
		live task.Set
	}
	for _, alg := range []Alg{EDF, RM, DM} {
		root, err := Compile(task.Set{pool[0], pool[2]}, alg)
		if err != nil {
			t.Fatal(err)
		}
		lins := []*lineage{{pf: root, live: task.Set{pool[0], pool[2]}}}
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}
		batch := func() task.Set {
			k := 1 + next()%3
			out := make(task.Set, k)
			for j := range out {
				out[j] = pool[next()%len(pool)]
			}
			return out
		}
		for step := 0; i < len(data); step++ {
			l := lins[next()%len(lins)]
			var why string
			switch op := next() % lineageOps; op {
			case lineageThaw:
				if len(lins) == maxLineages {
					continue
				}
				why = "thaw fork"
				lins = append(lins, &lineage{pf: l.pf.Thawed(), live: slices.Clone(l.live)})
			case lineageFork:
				fork := batch()
				if len(lins) == maxLineages {
					continue
				}
				for j := range fork {
					fork[j].Name += "-fork"
				}
				why = "frozen fork"
				child, err := l.pf.WithTasks(fork)
				if err != nil {
					t.Fatalf("%s step %d: fork: %v", alg, step, err)
				}
				lins = append(lins, &lineage{pf: child, live: append(slices.Clone(l.live), fork...)})
			case lineageAdd, lineageDrop:
				// Keep the batch's distinct tasks that the op applies
				// to: absent ones for an admit, present ones for a
				// removal.
				var b task.Set
				for _, tk := range batch() {
					if slices.Contains(l.live, tk) == (op == lineageDrop) && !slices.Contains(b, tk) {
						b = append(b, tk)
					}
				}
				if len(b) == 0 {
					continue
				}
				if op == lineageAdd {
					why = "admit"
					if l.pf.Exclusive() {
						err = l.pf.AddTasks(b)
					} else {
						l.pf, err = l.pf.WithTasks(b)
					}
					l.live = append(l.live, b...)
				} else {
					why = "remove"
					if l.pf.Exclusive() {
						err = l.pf.DropTasks(b)
					} else {
						l.pf, err = l.pf.WithoutTasks(b)
					}
					l.live = slices.DeleteFunc(l.live, func(tk task.Task) bool { return slices.Contains(b, tk) })
				}
				if err != nil {
					t.Fatalf("%s step %d: %s %v: %v", alg, step, why, b.Names(), err)
				}
			}
			for li, l := range lins {
				stage := fmt.Sprintf("%s step %d (%s), lineage %d", alg, step, why, li)
				// MinQ first: assertProfileIdentical's Equal settles the
				// profile, and an exclusive lineage patched in place must
				// answer from its unsettled demand-row scan too.
				for _, p := range lineagePeriods {
					want, err := MinQ(l.live, alg, p)
					if err != nil {
						t.Fatalf("%s: naive MinQ(%g): %v", stage, p, err)
					}
					if got := l.pf.MinQ(p); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: MinQ(%g) = %v, naive MinQ = %v", stage, p, got, want)
					}
				}
				fresh, err := Compile(l.live, alg)
				if err != nil {
					t.Fatalf("%s: lineage oracle: %v", stage, err)
				}
				assertProfileIdentical(t, stage, l.pf, fresh)
			}
		}
		for li, l := range lins {
			if len(l.live) == 0 {
				continue
			}
			if err := l.pf.Check(); err != nil {
				t.Fatalf("%s final check, lineage %d: %v", alg, li, err)
			}
		}
	}
}
