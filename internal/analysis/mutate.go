package analysis

import (
	"fmt"
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
//     WithoutTasks). Immutable and safe for concurrent reads; a frozen
//     profile's index and rows are never written again, so clones may
//     share them.
//   - Exclusive: Thawed and CompileMutable results, owned by a single
//     goroutine (the online manager holds each under its channel lock)
//     and patched in place. Exclusivity is a single-owner contract, not
//     a lock.
//
// An exclusive profile's own prefix rows live in one arena (preb) at a
// uniform stride, with a spare buffer (prebAlt) that width-changing
// relayouts swap with, so steady-state admit+remove cycles reuse two
// flat buffers and never allocate. A profile thawed from a frozen one
// borrows its leading rows instead of copying them: rows with an index
// below the borrowed count live in the lender's storage and are never
// written in place. A patch that must rewrite a borrowed row — a
// relayout, or a drop at or before that row's index — moves it into the
// own arena, which that patch rewrites anyway. The index is cloned
// copy-on-write from a frozen receiver, so its own machinery privatizes
// whatever the patch touches. An exclusive receiver keeps mutating, so
// its clones get a deep index copy and a copy of its own rows.
//
// Rejection rollback is the inverse patch: AddTasks followed by
// DropTasks of the same tasks restores the profile bit-exactly, because
// both directions perform the identical float64 term accumulation a
// fresh Compile performs.

// patchScratch holds the per-operation scratch buffers of the patch.
// Pooled at package level: profiles are patched under their channel
// lock, but distinct channels patch concurrently.
type patchScratch struct {
	scaled []int64
	union  []float64
	dls    []float64
	tmp    []float64
	used   []bool
}

var patchPool = sync.Pool{New: func() any { return new(patchScratch) }}

// Exclusive reports whether the profile is in exclusive (mutable)
// mode, i.e. it was produced by Thawed or CompileMutable and may be
// patched in place with AddTasks/DropTasks.
func (pf *Profile) Exclusive() bool { return pf.exclusive }

// Thawed returns an exclusive copy of the profile: same compiled state,
// free to be patched in place. The receiver is unchanged and remains
// valid; a frozen receiver lends its prefix rows to the copy. The copy
// must only be used by one goroutine at a time.
func (pf *Profile) Thawed() *Profile { return pf.thaw(4, true) }

// thaw is Thawed with room for extra more tasks in the task, period and
// row-header slices; slack selects growth headroom in the buffers later
// patches allocate (off for what-if clones, which freeze exactly sized).
func (pf *Profile) thaw(extra int, slack bool) *Profile {
	n := len(pf.tasks)
	c := &Profile{
		alg: pf.alg, horizon: pf.horizon, horizonInt: pf.horizonInt,
		fallbacks: pf.fallbacks, exclusive: true, slack: slack,
		borrowed: pf.borrowed, lent: pf.lent,
	}
	c.tasks = append(make(task.Set, 0, n+extra), pf.tasks...)
	if pf.scaled != nil {
		c.scaled = append(make([]int64, 0, n+extra), pf.scaled...)
	}
	switch {
	case pf.idx != nil:
		c.pre = append(make([][]float64, 0, n+extra), pf.pre...)
		var own []float64
		if pf.exclusive {
			c.idx, own = pf.idx.DeepClone(), pf.preb
		} else {
			c.idx = pf.idx.Clone()
			c.borrowed, c.lent = n, pf.pinned()
		}
		// Slack lineages start with two spare rows, so small admissions
		// patch without allocating.
		size := len(own)
		if slack {
			size += 2 * c.idx.Len()
		}
		c.preb = append(make([]float64, 0, size), own...)
		c.setRows(n, c.idx.Len())
		c.edf = c.idx.Kept()
	case pf.fp != nil:
		// FP rows are immutable once built; sharing them is safe (patches
		// replace row pointers, never row contents).
		c.fp = append(make([][]envelope.Pair, 0, n+extra), pf.fp...)
	}
	return c
}

// freeze ends a what-if clone's exclusive life: the spare buffer is
// dropped and the profile becomes immutable, free to lend its rows.
func (pf *Profile) freeze() *Profile {
	pf.exclusive = false
	pf.prebAlt = nil
	return pf
}

// CompileMutable compiles s and returns the profile already in
// exclusive mode — the starting point for a lineage that will be
// patched in place rather than cloned. Compile's row arena is exactly
// compact, so a consolidation that rebuilds through CompileMutable
// reports Ratio 1.0 and the ratio trigger converges; the first
// width-changing patch afterwards re-establishes the double-buffer
// slack.
func CompileMutable(s task.Set, alg Alg) (*Profile, error) {
	pf, err := Compile(s, alg)
	if err != nil {
		return nil, err
	}
	pf.exclusive, pf.slack = true, true
	return pf, nil
}

// AddTasks patches the profile in place, adding every task in add in
// order — after it returns, the profile is bit-identical (retained
// streams included) to a fresh Compile of the extended set. The profile
// must be exclusive. On error the profile is unchanged, except for
// internal-invariant bails which rebuild it from scratch (still to the
// correct extended state).
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
// After it returns, the profile is bit-identical to a fresh Compile of
// the surviving set — in particular, AddTasks followed by DropTasks of
// the same batch restores the pre-patch state bit for bit, which is
// what the online manager's rejection rollback relies on. The profile
// must be exclusive. A not-present error leaves the profile unchanged.
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

// setRows rebuilds the headers of the own rows, borrowed..n-1, over the
// arena at the given stride, full-slice-capped so an append through a
// header can never clobber the next row. Borrowed headers are kept.
func (pf *Profile) setRows(n, width int) {
	b := pf.borrowed
	if cap(pf.pre) < n {
		grow := n
		if pf.slack {
			grow += 4
		}
		hdr := make([][]float64, b, grow)
		copy(hdr, pf.pre)
		pf.pre = hdr
	} else {
		pf.pre = pf.pre[:b]
	}
	for r := b; r < n; r++ {
		o := (r - b) * width
		pf.pre = append(pf.pre, pf.preb[o:o+width:o+width])
	}
}

// spareBuf returns a length-need buffer that does not alias preb,
// reusing prebAlt's backing when large enough. Contents are garbage;
// the caller fills every cell it will read.
func (pf *Profile) spareBuf(need, width int) []float64 {
	buf := pf.prebAlt[:0]
	if cap(buf) < need {
		size := need
		if pf.slack {
			size += 2 * width
		}
		buf = make([]float64, 0, size)
	}
	return buf[:need]
}

// swapArena installs buf (obtained from spareBuf) as the row arena and
// retires the old one to prebAlt for the next relayout.
func (pf *Profile) swapArena(buf []float64) {
	pf.preb, pf.prebAlt = buf, pf.preb[:0]
}

// adoptCompiled is the patch's bail-out: rebuild s from scratch and
// adopt the fresh profile — its exactly compact row arena included —
// keeping the receiver exclusive with its growth policy, and carrying
// the fallback count (bumped for a genuine fallback rather than a
// trivial case such as an empty profile). The larger old buffer stays
// on as the spare and the old header slice takes the fresh rows, so
// the next patch can grow without allocating.
func (pf *Profile) adoptCompiled(s task.Set, bump bool) error {
	fresh, err := Compile(s, pf.alg)
	if err != nil {
		return err
	}
	fresh.fallbacks = pf.fallbacks
	if bump {
		fresh.fallbacks++
	}
	fresh.exclusive, fresh.slack = true, pf.slack
	fresh.prebAlt = pf.prebAlt[:0]
	if cap(pf.preb) > cap(pf.prebAlt) {
		fresh.prebAlt = pf.preb[:0]
	}
	if cap(pf.pre) >= len(fresh.pre) {
		fresh.pre = append(pf.pre[:0], fresh.pre...)
	}
	*pf = *fresh
	return nil
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
		if hInt = timeu.LCM(hInt, p); hInt != pf.horizonInt {
			sc.scaled = scaledAdd
			return pf.adoptCompiled(append(pf.tasks, add...), true)
		}
	}
	sc.scaled = scaledAdd
	n, k := len(pf.tasks), len(add)
	// Union of the newcomers' deadline streams, built on pooled buffers:
	// the single merge input.
	union := points.AppendTaskDeadlines(sc.union[:0], add[0], pf.horizon)
	for _, t := range add[1:] {
		sc.dls = points.AppendTaskDeadlines(sc.dls[:0], t, pf.horizon)
		union, sc.tmp = points.MergeUniqueInto(union, sc.dls, sc.tmp[:0]), union
	}
	sc.union = union
	// Merge splices the brand-new scheduling points in as zero-demand,
	// zero-owner placeholders and reports their positions.
	inserted := pf.idx.Merge(union)
	N := pf.idx.Len()
	if len(inserted) == 0 {
		// Widths unchanged: every existing row keeps its cells, borrowed
		// ones included; the arena grows by the k new rows.
		need := (n + k - pf.borrowed) * N
		if cap(pf.preb) < need {
			buf := pf.spareBuf(need, N)
			copy(buf, pf.preb)
			pf.swapArena(buf)
		} else {
			pf.preb = pf.preb[:need]
		}
	} else {
		// The stream widened: relayout every row into the spare arena —
		// borrowed rows move in here — with gap columns at the inserted
		// positions; runs of retained points get block copies per row.
		buf := pf.spareBuf((n+k)*N, N)
		for r := 0; r < n; r++ {
			dst, src := buf[r*N:(r+1)*N], pf.pre[r]
			from, at := 0, 0
			for _, p := range inserted {
				copy(dst[at:p], src[from:from+(p-at)])
				from += p - at
				at = p + 1
			}
			copy(dst[at:], src[from:])
		}
		pf.swapArena(buf)
		pf.borrowed = 0
	}
	pf.setRows(n+k, N)
	if len(inserted) > 0 {
		// Brand-new points: accumulate the old set's prefix demand
		// exactly as a fresh Compile would.
		ts := pf.idx.Ts()
		for _, p := range inserted {
			x := ts[p]
			w := 0.0
			for r := 0; r < n; r++ {
				w += demandTerm(pf.tasks[r], x)
				pf.pre[r][p] = w
			}
		}
	}
	// Bump owner counts for each newcomer's own stream; every inserted
	// placeholder belongs to at least one newcomer, so no zero-owner
	// point survives.
	for _, t := range add {
		sc.dls = points.AppendTaskDeadlines(sc.dls[:0], t, pf.horizon)
		if err := pf.idx.AddOwners(sc.dls); err != nil {
			// Impossible unless the compiled state is corrupted;
			// degrade to a rebuild rather than panic.
			return pf.adoptCompiled(append(pf.tasks, add...), true)
		}
	}
	pf.tasks = append(pf.tasks, add...)
	pf.scaled = append(pf.scaled, scaledAdd...)
	// Append the k new prefix rows, each the left-fold continuation of
	// the one before — the exact partial sums a sequential fold builds.
	ts := pf.idx.Ts()
	base := pf.pre[n-1]
	for j := 0; j < k; j++ {
		row := pf.pre[n+j]
		t := pf.tasks[n+j]
		for p, x := range ts {
			row[p] = base[p] + demandTerm(t, x)
		}
		base = row
	}
	// Hand the patched demand row to the index: it re-ranks exactly the
	// points whose demand changed bitwise and maintains the envelope.
	if err := pf.idx.SetDemand(pf.pre[n+k-1]); err != nil {
		return pf.adoptCompiled(pf.tasks, true)
	}
	pf.edf = pf.idx.Kept()
	return nil
}

func (pf *Profile) dropTasksEDF(rem []task.Task) error {
	n0 := len(pf.tasks)
	sc := patchPool.Get().(*patchScratch)
	defer patchPool.Put(sc)
	minIdx, err := pf.mark(rem, sc)
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
		if !used[i] {
			if hInt = timeu.LCM(hInt, p); hInt == pf.horizonInt {
				break
			}
		}
	}
	// Compact tasks and scaled in place.
	w := 0
	for i := 0; i < n0; i++ {
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
	n := w
	// Walk owner counts down once per departing stream, then compact:
	// points owned solely by the departing tasks drop out of the stream,
	// and Compact reports their pre-compaction positions. A violated
	// invariant (a deadline not in the stream — impossible unless the
	// compiled state is corrupted) degrades to a rebuild.
	for _, t := range rem {
		sc.dls = points.AppendTaskDeadlines(sc.dls[:0], t, pf.horizon)
		if err := pf.idx.RemoveOwners(sc.dls); err != nil {
			return pf.adoptCompiled(pf.tasks, true)
		}
	}
	dropped := pf.idx.Compact()
	N := pf.idx.Len()
	keep := min(minIdx, n)
	if len(dropped) == 0 {
		// Widths unchanged: rows above the first removed position keep
		// their cells in place. Borrowed rows at or below it move into
		// the own arena, where the suffix re-accumulation below rewrites
		// them — so when the arena must grow, nothing carries over.
		b := min(pf.borrowed, keep)
		need := (n - b) * N
		if cap(pf.preb) < need {
			pf.swapArena(pf.spareBuf(need, N))
		}
		pf.preb = pf.preb[:need]
		pf.borrowed = b
	} else {
		// The stream narrowed: relayout the kept rows into the spare
		// arena — borrowed rows move in here — skipping the dropped
		// columns.
		buf := pf.spareBuf(n*N, N)
		for r := 0; r < keep; r++ {
			dst, src := buf[r*N:(r+1)*N], pf.pre[r]
			from, at := 0, 0
			for _, p := range dropped {
				copy(dst[at:at+(p-from)], src[from:p])
				at += p - from
				from = p + 1
			}
			copy(dst[at:], src[from:])
		}
		pf.swapArena(buf)
		pf.borrowed = 0
	}
	pf.setRows(n, N)
	// Re-accumulate the suffix rows in place; each reads the (already
	// final) row above it.
	ts := pf.idx.Ts()
	for r := keep; r < n; r++ {
		tk := pf.tasks[r]
		row := pf.pre[r]
		if r == 0 {
			for p, x := range ts {
				row[p] = demandTerm(tk, x)
			}
		} else {
			base := pf.pre[r-1]
			for p, x := range ts {
				row[p] = base[p] + demandTerm(tk, x)
			}
		}
	}
	if err := pf.idx.SetDemand(pf.pre[n-1]); err != nil {
		return pf.adoptCompiled(pf.tasks, true)
	}
	pf.edf = pf.idx.Kept()
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
