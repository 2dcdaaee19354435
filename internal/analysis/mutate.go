package analysis

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/envelope"
	"repro/internal/points"
	"repro/internal/task"
	"repro/internal/timeu"
)

// This file implements the in-place patch (AddTasks/DropTasks, the one
// incremental algorithm described in incremental.go) and the two
// ownership modes it runs under:
//
//   - Frozen: Compile results and what-if results (WithTasks,
//     WithoutTasks). Immutable, settled and safe for concurrent reads; a
//     frozen profile's slices are never written again.
//   - Exclusive: Thawed and CompileMutable results, owned by a single
//     goroutine (the online manager holds each under its channel lock)
//     and patched in place. Exclusivity is a single-owner contract, not
//     a lock.
//
// A thaw copies the EDF stream, its owner counts and the demand row W —
// a float64, an int32 and an int64 per stream point — and shares the
// receiver's pruned pairs, which no profile writes in place. An
// exclusive profile patches the three slices in place: a stream that
// widens grows them, reusing their capacity once they have grown, so
// steady-state admit+remove cycles never allocate. A walk that leaves
// their capacity at MaxMemRatio times their length or more reallocates
// them to exactly their length, so a profile's storage stays
// proportional to its live stream however far departed guests widened
// it.
//
// The EDF patch keeps the stream, owner counts and W exact but leaves
// the pruned pairs behind: the profile is unsettled, and MinQ scans W
// directly. settle prunes the row once, when the profile is frozen (the
// what-ifs) or audited (Equal, Check), so only exclusive profiles are
// ever unsettled and no reader writes to a shared one. Thawing an
// unsettled profile gives an unsettled copy.
//
// Rejection rollback is the inverse patch: AddTasks followed by
// DropTasks of the same tasks restores the profile exactly, because the
// stream and owner counts gain and lose the same points, W gains and
// loses the same integer terms, and the pruned pairs are a function of
// the row.

// patchScratch holds the per-operation scratch buffers of the patch,
// of demandRow and of pruneRow. Pooled at package level: profiles are
// patched under their channel lock, but distinct channels patch
// concurrently, and FeasibleEDF runs on any goroutine.
type patchScratch struct {
	scaled  []int64
	union   []float64
	charges []int64
	counts  []int32
	dls     []float64
	tmp     []float64
	tmpC    []int64
	tmpO    []int32
	used    []bool
	pairs   []envelope.Pair
	// The stream, owner counts and demand row demandRow builds.
	rowTs     []float64
	rowOwners []int32
	rowW      []int64
}

var patchPool = sync.Pool{New: func() any { return new(patchScratch) }}

// Exclusive reports whether the profile is in exclusive (mutable)
// mode, i.e. it was produced by Thawed or CompileMutable and may be
// patched in place with AddTasks/DropTasks.
func (pf *Profile) Exclusive() bool { return pf.exclusive }

// Thawed returns an exclusive copy of the profile: same compiled state,
// free to be patched in place. The receiver is unchanged and remains
// valid. The copy must only be used by one goroutine at a time.
func (pf *Profile) Thawed() *Profile { return pf.thaw(4) }

// thaw is Thawed with room for extra more tasks in the task and period
// slices.
func (pf *Profile) thaw(extra int) *Profile {
	n := len(pf.tasks)
	c := &Profile{
		alg: pf.alg, edf: pf.edf, horizon: pf.horizon, horizonInt: pf.horizonInt,
		streamLen: pf.streamLen, fallbacks: pf.fallbacks, exclusive: true,
		unsettled: pf.unsettled,
	}
	c.tasks = append(make(task.Set, 0, n+extra), pf.tasks...)
	if pf.scaled != nil {
		c.scaled = append(make([]int64, 0, n+extra), pf.scaled...)
	}
	switch {
	case pf.alg == EDF:
		c.ts, c.owners, c.w = exact(pf.ts), exact(pf.owners), exact(pf.w)
	case pf.fp != nil:
		// FP rows are immutable once built; sharing them is safe (patches
		// replace row pointers, never row contents).
		c.fp = append(make([][]envelope.Pair, 0, n+extra), pf.fp...)
	}
	return c
}

// freeze ends a what-if clone's exclusive life: the profile is settled
// and becomes immutable.
func (pf *Profile) freeze() *Profile {
	pf.settle()
	pf.exclusive = false
	return pf
}

// settle brings an unsettled profile's pruned pairs up to date with its
// demand row by pruning the row once. Only an exclusive profile is ever
// unsettled, so settle writes only to a profile its caller owns.
func (pf *Profile) settle() {
	if !pf.unsettled {
		return
	}
	pf.edf = pruneRow(pf.ts, pf.w)
	pf.unsettled = false
}

// CompileMutable compiles s and returns the profile already in
// exclusive mode — the starting point for a lineage that will be
// patched in place rather than cloned. Compile's rows are exactly
// sized, so the profile starts at MemStats.Ratio 1.
func CompileMutable(s task.Set, alg Alg) (*Profile, error) {
	pf, err := Compile(s, alg)
	if err != nil {
		return nil, err
	}
	pf.exclusive = true
	return pf, nil
}

// AddTasks patches the profile in place, adding every task in add in
// order — after it returns, the profile is identical (retained streams
// and demand row included, the pruned pairs once settled) to a fresh
// Compile of the extended set. The profile must be exclusive. An EDF
// patch leaves the profile unsettled (see settle). On error the
// profile is unchanged, except for internal-invariant bails which
// rebuild it from scratch (still to the correct extended state).
func (pf *Profile) AddTasks(add []task.Task) error {
	if !pf.exclusive {
		return fmt.Errorf("analysis: AddTasks: profile is not exclusive (use Thawed or CompileMutable)")
	}
	for _, t := range add {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("analysis: AddTasks: %w", err)
		}
	}
	if len(add) == 0 {
		return nil
	}
	switch pf.alg {
	case EDF:
		return pf.addTasksEDF(add)
	case RM, DM:
		pf.addTasksFP(add)
		return nil
	}
	return fmt.Errorf("analysis: AddTasks: unknown algorithm %s", pf.alg)
}

// DropTasks patches the profile in place, removing every task in rem
// (exact field equality; a value listed twice must be present twice).
// After it returns, the profile is identical to a fresh Compile of the
// surviving set — in particular, AddTasks followed by DropTasks of the
// same batch restores the pre-patch state exactly, which is what the
// online manager's rejection rollback relies on. The profile must be
// exclusive. A not-present error leaves the profile unchanged.
func (pf *Profile) DropTasks(rem []task.Task) error {
	if !pf.exclusive {
		return fmt.Errorf("analysis: DropTasks: profile is not exclusive (use Thawed or CompileMutable)")
	}
	if len(rem) == 0 {
		return nil
	}
	switch pf.alg {
	case EDF:
		return pf.dropTasksEDF(rem)
	case RM, DM:
		return pf.dropTasksFP(rem)
	}
	return fmt.Errorf("analysis: DropTasks: unknown algorithm %s", pf.alg)
}

// adoptCompiled is the patch's bail-out: rebuild s from scratch and
// adopt the fresh profile, keeping the receiver exclusive and carrying
// the fallback count (bumped for a genuine fallback rather than a
// trivial case such as an empty profile). On error the receiver is
// unchanged.
func (pf *Profile) adoptCompiled(s task.Set, bump bool) error {
	fresh, err := Compile(s, pf.alg)
	if err != nil {
		return err
	}
	fresh.fallbacks = pf.fallbacks
	if bump {
		fresh.fallbacks++
	}
	fresh.exclusive = true
	*pf = *fresh
	return nil
}

// mergeCharges merges a task's deadline stream dls into the charged
// union (union, charges, counts) of a batch's streams: each deadline
// charges c ticks and o owners, and a shared point adds both up. It
// writes to sc's spare buffers and swaps them with the union's.
func (sc *patchScratch) mergeCharges(dls []float64, c int64, o int32) {
	ts, cs, ns := sc.union, sc.charges, sc.counts
	n := len(ts) + len(dls)
	dts := slices.Grow(sc.tmp[:0], n)
	dcs := slices.Grow(sc.tmpC[:0], n)
	dns := slices.Grow(sc.tmpO[:0], n)
	i, j := 0, 0
	for i < len(ts) || j < len(dls) {
		switch {
		case j == len(dls) || i < len(ts) && ts[i] < dls[j]:
			dts, dcs, dns = append(dts, ts[i]), append(dcs, cs[i]), append(dns, ns[i])
			i++
		case i == len(ts) || dls[j] < ts[i]:
			dts, dcs, dns = append(dts, dls[j]), append(dcs, c), append(dns, o)
			j++
		default:
			dts, dcs, dns = append(dts, ts[i]), append(dcs, cs[i]+c), append(dns, ns[i]+o)
			i++
			j++
		}
	}
	sc.union, sc.charges, sc.counts = dts, dcs, dns
	sc.tmp, sc.tmpC, sc.tmpO = ts, cs, ns
}

// applyUnion applies the batch's charged union to the stream in one
// walk: each union point gains its owner counts, every point gains the
// charges of the union points up to it (the jobs due by it), and the
// columns left without owners drop out. A slice whose capacity the
// walk leaves at MaxMemRatio times its length or more is reallocated
// to exactly its length. It reports false, leaving the three slices
// unspecified, when a union point is missing from the stream or an
// owner count falls below zero — impossible unless the compiled state
// is corrupted.
func (pf *Profile) applyUnion(sc *patchScratch) bool {
	ts := pf.ts
	owners, w := pf.owners[:len(ts)], pf.w[:len(ts)]
	u := sc.union
	cs, ns := sc.charges[:len(u)], sc.counts[:len(u)]
	var d int64
	j, q := 0, 0
	for p, x := range ts {
		own := owners[p]
		if j < len(u) && u[j] <= x {
			if u[j] < x {
				return false
			}
			d += cs[j]
			own += ns[j]
			j++
			if own < 0 {
				return false
			}
		}
		if own == 0 {
			continue
		}
		ts[q], owners[q], w[q] = x, own, w[p]+d
		q++
	}
	if j < len(u) {
		return false
	}
	pf.ts, pf.owners, pf.w = trim(ts[:q]), trim(owners[:q]), trim(w[:q])
	return true
}

// trim returns s, reallocated to exactly its length when its capacity
// breaks the MaxMemRatio bound.
func trim[E any](s []E) []E {
	if overGrown(len(s), cap(s)) {
		return exact(s)
	}
	return s
}

// splice inserts the points of u (ascending) that the stream lacks into
// the three slices in place, each with no owners and its predecessor's
// demand, since no resident has a deadline between the two. A slice
// whose capacity is short is reallocated to exactly the merged length.
func (pf *Profile) splice(u []float64) {
	n := len(pf.ts)
	m, i := n, 0
	for _, t := range u {
		for i < n && pf.ts[i] < t {
			i++
		}
		if i < n && pf.ts[i] == t {
			i++
		} else {
			m++
		}
	}
	if m == n {
		return
	}
	ts, owners, w := resize(pf.ts, m), resize(pf.owners, m), resize(pf.w, m)
	// Merge from the back: every column moves once, to a position at or
	// after its own, and the loop ends when the last point has been
	// inserted, where the columns still unmoved are already in place.
	i, k := n-1, m-1
	for j := len(u) - 1; k > i; j-- {
		for i >= 0 && ts[i] > u[j] {
			ts[k], owners[k], w[k] = ts[i], owners[i], w[i]
			i--
			k--
		}
		if i >= 0 && ts[i] == u[j] {
			continue
		}
		ts[k], owners[k], w[k] = u[j], 0, 0
		if i >= 0 {
			w[k] = w[i]
		}
		k--
	}
	pf.ts, pf.owners, pf.w = ts, owners, w
}

// resize returns s resliced to length n, reallocated to capacity
// exactly n when its capacity is short.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		s = append(make([]E, 0, n), s...)
	}
	return s[:n]
}

func (pf *Profile) addTasksEDF(add []task.Task) error {
	if len(pf.tasks) == 0 {
		// Compile a copy, so that add does not escape.
		return pf.adoptCompiled(append(make(task.Set, 0, len(add)), add...), false)
	}
	sc := patchPool.Get().(*patchScratch)
	defer patchPool.Put(sc)
	// Fold the hyperperiod; the fold is monotone from the current
	// horizon, so the first divergence is permanent and means every
	// stream re-ranges — bail to a rebuild immediately. (Integer LCM is
	// order-independent, so the folded hyperperiod matches a fresh
	// Compile of the whole candidate.)
	scaledAdd := sc.scaled[:0]
	hInt := pf.horizonInt
	for _, t := range add {
		p, err := timeu.ScaledPeriod(t.T, HyperperiodDenominator)
		if err != nil {
			sc.scaled = scaledAdd
			return err
		}
		scaledAdd = append(scaledAdd, p)
		if hInt, err = timeu.LCM(hInt, p); err != nil {
			sc.scaled = scaledAdd
			return err
		}
		if hInt != pf.horizonInt {
			sc.scaled = scaledAdd
			return pf.adoptCompiled(append(pf.tasks, add...), true)
		}
	}
	sc.scaled = scaledAdd
	// The bound a fresh Compile of the candidate applies to its stream.
	streamLen := pf.streamLen + points.StreamLen(add, pf.horizon)
	if err := points.CheckStreamLen(streamLen, pf.horizon); err != nil {
		return err
	}
	// Union of the newcomers' deadline streams, built on pooled buffers:
	// the single merge input. W's last point is the demand of the whole
	// stream, so checking the newcomers' jobs against it bounds every
	// cell before anything changes. (A stream can be empty: a period
	// just above its scaled value puts the deadline past the horizon.)
	var total int64
	if len(pf.w) > 0 {
		total = pf.w[len(pf.w)-1]
	}
	sc.union, sc.charges, sc.counts = sc.union[:0], sc.charges[:0], sc.counts[:0]
	for _, t := range add {
		sc.dls = points.AppendTaskDeadlines(sc.dls[:0], t, pf.horizon)
		c, ok := wcetTicks(t.C)
		if ok {
			total, ok = addJobs(total, int64(len(sc.dls)), c)
		}
		if !ok {
			return errOverflow
		}
		sc.mergeCharges(sc.dls, c, 1)
	}
	// Splice the brand-new scheduling points in, then add the batch's
	// owners and jobs in one walk.
	pf.splice(sc.union)
	if !pf.applyUnion(sc) {
		return pf.adoptCompiled(append(pf.tasks, add...), true)
	}
	pf.tasks = append(pf.tasks, add...)
	pf.scaled = append(pf.scaled, scaledAdd...)
	pf.streamLen = streamLen
	pf.unsettled = true
	return nil
}

func (pf *Profile) dropTasksEDF(rem []task.Task) error {
	n0 := len(pf.tasks)
	sc := patchPool.Get().(*patchScratch)
	defer patchPool.Put(sc)
	first, err := pf.mark(rem, sc)
	if err != nil {
		return err
	}
	used := sc.used
	if len(rem) == n0 {
		return pf.adoptCompiled(nil, false)
	}
	// Re-fold the surviving hyperperiod. Every cached scaled period
	// divides the current horizon and the fold is monotone, so once it
	// reaches the horizon it stays there — stop early.
	hInt := int64(1)
	for i, p := range pf.scaled {
		if used[i] {
			continue
		}
		if hInt, err = timeu.LCM(hInt, p); err != nil {
			return err
		} else if hInt == pf.horizonInt {
			break
		}
	}
	// Compact tasks and scaled in place from the first leaver; nothing
	// before it moves.
	w := first
	for i := first; i < n0; i++ {
		if !used[i] {
			pf.tasks[w] = pf.tasks[i]
			pf.scaled[w] = pf.scaled[i]
			w++
		}
	}
	pf.tasks = pf.tasks[:w]
	pf.scaled = pf.scaled[:w]
	if hInt != pf.horizonInt {
		// A departing task carried the hyperperiod; the whole stream
		// re-ranges, so patching has no advantage.
		return pf.adoptCompiled(pf.tasks, true)
	}
	pf.streamLen -= points.StreamLen(rem, pf.horizon)
	// Take the leavers' owners and jobs back in one walk, which drops the
	// points only they owned. A violated invariant (a departing deadline
	// missing from the stream, or an owner count below zero — impossible
	// unless the compiled state is corrupted) degrades to a rebuild.
	sc.union, sc.charges, sc.counts = sc.union[:0], sc.charges[:0], sc.counts[:0]
	for _, t := range rem {
		sc.dls = points.AppendTaskDeadlines(sc.dls[:0], t, pf.horizon)
		c, _ := wcetTicks(t.C)
		sc.mergeCharges(sc.dls, -c, -1)
	}
	if !pf.applyUnion(sc) {
		return pf.adoptCompiled(pf.tasks, true)
	}
	pf.unsettled = true
	return nil
}

// mark flags in sc.used the entry of every task in rem — a value listed
// twice must match two distinct (identical-valued) entries — and
// returns the first flagged position. It leaves the profile unchanged.
func (pf *Profile) mark(rem []task.Task, sc *patchScratch) (int, error) {
	n := len(pf.tasks)
	used := sc.used
	if cap(used) < n {
		used = make([]bool, n)
	} else {
		used = used[:n]
		clear(used)
	}
	sc.used = used
	first := n
	for _, t := range rem {
		found := -1
		for i := range pf.tasks {
			if !used[i] && pf.tasks[i] == t {
				found = i
				break
			}
		}
		if found < 0 {
			return 0, fmt.Errorf("analysis: task %q not in profile", t.Name)
		}
		used[found] = true
		first = min(first, found)
	}
	return first, nil
}

// addTasksFP merges the newcomers into the priority-ordered set and
// rebuilds the priority suffix below the highest-priority newcomer:
// levels above it keep their higher-priority sets, so their rows stay.
func (pf *Profile) addTasksFP(add []task.Task) {
	// Sort the newcomers by priority (stable, so equal-priority newcomers
	// keep their batch order, matching sequential single-task inserts),
	// then merge with existing tasks first on exact ties — the position
	// sequence a fold of single-task inserts produces. The merge runs
	// backwards so it fills the grown slice in place.
	sorted := append(make(task.Set, 0, len(add)), add...)
	sort.SliceStable(sorted, func(i, j int) bool { return pf.alg.priorityLess(sorted[i], sorted[j]) })
	i := len(pf.tasks) - 1
	pf.tasks = append(pf.tasks, sorted...)
	first := 0
	for j, w := len(sorted)-1, len(pf.tasks)-1; j >= 0; w-- {
		if i >= 0 && pf.alg.priorityLess(sorted[j], pf.tasks[i]) {
			pf.tasks[w] = pf.tasks[i]
			i--
		} else {
			pf.tasks[w] = sorted[j]
			j--
			first = w
		}
	}
	pf.rebuildFP(first)
}

func (pf *Profile) dropTasksFP(rem []task.Task) error {
	sc := patchPool.Get().(*patchScratch)
	defer patchPool.Put(sc)
	first, err := pf.mark(rem, sc)
	if err != nil {
		return err
	}
	w := first
	for i := first; i < len(pf.tasks); i++ {
		if !sc.used[i] {
			pf.tasks[w] = pf.tasks[i]
			w++
		}
	}
	pf.tasks = pf.tasks[:w]
	pf.rebuildFP(first)
	return nil
}

// rebuildFP rebuilds the fixed-priority rows from priority level first
// down, the levels whose higher-priority sets a patch changed.
func (pf *Profile) rebuildFP(first int) {
	n0 := len(pf.fp)
	pf.fp = pf.fp[:first]
	for r := first; r < len(pf.tasks); r++ {
		pf.fp = append(pf.fp, compileFPRow(pf.tasks[:r], pf.tasks[r]))
	}
	if n0 > len(pf.fp) {
		// Release the departed levels' rows.
		clear(pf.fp[len(pf.fp):n0])
	}
}
