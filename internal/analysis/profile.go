package analysis

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/envelope"
	"repro/internal/points"
	"repro/internal/task"
	"repro/internal/timeu"
)

// This file implements the compiled-analysis layer. The design-space
// searches of internal/region evaluate minQ(T, alg, P) for the same task
// set at thousands of periods P, yet everything except the final quantum
// inversion — the hyperperiod, the scheduling-point sets and the demand
// values W(t) — is independent of P. Compile hoists all of that work out
// of the loop once, and Profile.MinQ performs only the P-dependent part:
// a flat scan of precompiled (t, W(t)) pairs through qNeeded, with zero
// allocations, no maps, no sorting and no recursion.
//
// On top of hoisting, the profile prunes pairs that can never decide
// the result. The dominance argument — two qNeeded curves cross at most
// once on P > 0, so a pair ranked at or below another at both the P → 0⁺
// and P → ∞ extremes is below it for every P — lives in
// internal/envelope. The profile keeps its pre-pruning EDF deadline
// stream, the per-point owner counts and the demand row in three
// aligned slices and prunes them with envelope.Prune: once when Compile
// builds the profile, and once more when a profile that the in-place
// patch (mutate.go) changed is frozen or audited. Between those, an
// exclusive profile that the patch left unsettled answers MinQ from its
// exact demand row, scanning every stream point with the naive oracle's
// own arithmetic; an admission controller that reads MinQ once per
// patch pays for the stream, not for an envelope it would read once.
// Dominance is applied with a relative margin (envelope.PruneMargin)
// far above float64 noise, so the pruned scan returns bit-identical
// results to the naive oracle MinQ.
//
// The EDF demand itself is exact. The profile keeps one row W of
// integer ticks along the stream — each job charges its WCET rounded
// up to ticks, as the simulator executes it — and prunes the pairs
// (t, W/timeu.Scale), W in the units DemandBound returns. Integer
// addition is associative, so a patch adds or subtracts one task's jobs
// in any order and still matches a fresh Compile exactly.

// Profile is a task set's demand structure compiled for one scheduling
// algorithm: everything minQ needs that does not depend on the period P.
// A Profile is frozen — immutable and safe for concurrent use — unless
// it came from Thawed or CompileMutable, which return exclusive
// profiles that AddTasks/DropTasks patch in place (mutate.go). The
// what-if constructors WithTasks and WithoutTasks (incremental.go)
// return new frozen profiles and leave the receiver unchanged.
type Profile struct {
	alg Alg
	// edf holds the surviving (t, W(t)) pairs of Eq. (11), ascending in
	// t: envelope.Prune of the demand row, exactly sized and never
	// written in place, so thawed copies share it. Used when alg == EDF.
	edf []envelope.Pair
	// fp holds, per task in priority order, the surviving
	// (t, W_i(t)) pairs of that task's scheduling-point search in
	// Eq. (6), ascending in t. Used when alg is RM or DM.
	fp [][]envelope.Pair

	// ts is the pre-pruning EDF deadline stream, strictly ascending.
	// owners[k] counts the tasks with a deadline at ts[k], and w[k] is
	// DemandBound at ts[k] in ticks (times timeu.Scale). The three
	// slices are aligned; they are empty for FP and empty profiles.
	ts     []float64
	owners []int32
	w      []int64

	// The fields below are the incremental-update state. tasks is the
	// compiled set — in declaration order for EDF and in priority order
	// for RM/DM (the order the fp rows are built in).
	tasks task.Set
	// horizon is the EDF hyperperiod the deadline stream was enumerated
	// to (horizonInt its integer numerator over HyperperiodDenominator,
	// for O(1) change detection). scaled[i] is tasks[i].T as an integer
	// numerator over HyperperiodDenominator, cached so a departure can
	// re-fold the hyperperiod with pure integer LCMs.
	horizon    float64
	horizonInt int64
	scaled     []int64
	// streamLen is points.StreamLen of tasks up to horizon, the count
	// points.MaxStream bounds, kept so that AddTasks checks a batch
	// against the bound without recounting the residents.
	streamLen float64
	// fallbacks counts how many times this profile's incremental
	// lineage bailed to a full recompile (hyperperiod change, or a
	// violated stream invariant); carried across updates so online
	// managers can report the incremental path's hit rate.
	fallbacks uint64
	// exclusive marks a single-owner profile that may be patched in
	// place (mutate.go).
	exclusive bool
	// unsettled marks an exclusive EDF profile patched in place since
	// its row was last pruned: ts, owners and w are exact, but edf still
	// describes an earlier row. MinQ scans w instead; settle prunes the
	// row again. A frozen profile is never unsettled.
	unsettled bool
}

// Compile builds the profile of s under alg. It performs all the
// P-independent work of MinQ — hyperperiods, scheduling-point sets,
// demand evaluation and dominance pruning — exactly once. An empty set
// compiles to a profile whose MinQ is identically zero. An EDF demand
// beyond the int64 tick range is an error.
func Compile(s task.Set, alg Alg) (*Profile, error) {
	pf := &Profile{alg: alg}
	if len(s) == 0 {
		return pf, nil
	}
	switch alg {
	case EDF:
		// The same integer fold task.Set.Hyperperiod performs, retaining
		// the per-task scaled periods for incremental horizon updates.
		scaled := make([]int64, len(s))
		hInt := int64(1)
		for i, tk := range s {
			p, err := timeu.ScaledPeriod(tk.T, HyperperiodDenominator)
			if err != nil {
				return nil, err
			}
			scaled[i] = p
			if hInt, err = timeu.LCM(hInt, p); err != nil {
				return nil, err
			}
		}
		pf.scaled = scaled
		h := float64(hInt) / float64(HyperperiodDenominator)
		sc := patchPool.Get().(*patchScratch)
		dls, owners, w, err := sc.demandRow(s, h)
		if err == nil {
			pf.ts, pf.owners, pf.w = exact(dls), exact(owners), exact(w)
		}
		patchPool.Put(sc)
		if err != nil {
			return nil, err
		}
		pf.tasks = append(task.Set(nil), s...)
		pf.horizon = h
		pf.horizonInt = hInt
		pf.streamLen = points.StreamLen(s, h)
		pf.edf = pruneRow(pf.ts, pf.w)
	case RM, DM:
		// EDF's horizon fold and deadline merge reject a non-finite task;
		// the fixed-priority rows check nothing, so validate here.
		for _, tk := range s {
			if err := tk.Validate(); err != nil {
				return nil, err
			}
		}
		ordered := alg.sorted(s)
		pf.tasks = ordered
		pf.fp = make([][]envelope.Pair, len(ordered))
		for i, tk := range ordered {
			pf.fp[i] = compileFPRow(ordered[:i], tk)
		}
	default:
		return nil, fmt.Errorf("analysis: Compile: unknown algorithm %s", alg)
	}
	return pf, nil
}

// demandRow builds the EDF deadline stream of s up to the horizon h in
// sc's row buffers, with per-point owner counts and the demand row in
// ticks: each task charges its WCET at its own deadlines, and the
// prefix sum holds, at every point, the jobs due by it — exactly
// DemandBound there. The stream is points.AppendDeadlines' k-way merge,
// and each task's own stream is walked along it to find its points.
// The three slices alias sc and hold until sc's next demandRow. Errors
// keep points' precedence: a stream beyond points.MaxStream is its
// error, and a demand beyond the int64 tick range is errOverflow.
func (sc *patchScratch) demandRow(s task.Set, h float64) ([]float64, []int32, []int64, error) {
	dls, err := points.AppendDeadlines(sc.rowTs[:0], s, h)
	if err != nil {
		return nil, nil, nil, err
	}
	owners := slices.Grow(sc.rowOwners[:0], len(dls))[:len(dls)]
	w := slices.Grow(sc.rowW[:0], len(dls))[:len(dls)]
	sc.rowTs, sc.rowOwners, sc.rowW = dls, owners, w
	clear(owners)
	clear(w)
	var total int64
	for _, tk := range s {
		sc.dls = points.AppendTaskDeadlines(sc.dls[:0], tk, h)
		c, ok := wcetTicks(tk.C)
		if ok {
			total, ok = addJobs(total, int64(len(sc.dls)), c)
		}
		if !ok {
			return nil, nil, nil, errOverflow
		}
		i := 0
		for _, x := range sc.dls {
			for dls[i] != x {
				i++
			}
			owners[i]++
			w[i] += c
			i++
		}
	}
	for k := 1; k < len(w); k++ {
		w[k] += w[k-1]
	}
	return dls, owners, w, nil
}

// exact returns a copy of s whose capacity is its length.
func exact[E any](s []E) []E { return append(make([]E, 0, len(s)), s...) }

// pruneRow returns the EDF envelope of a demand row in an exactly sized
// slice: envelope.Prune of the pairs (ts[k], W), W the row's demand in
// the units DemandBound returns, built in pooled scratch.
func pruneRow(ts []float64, w []int64) []envelope.Pair {
	sc := patchPool.Get().(*patchScratch)
	defer patchPool.Put(sc)
	all := slices.Grow(sc.pairs[:0], len(ts))[:len(ts)]
	sc.pairs = all
	for k, t := range ts {
		all[k] = envelope.Pair{T: t, W: timeu.Ticks(w[k]).Units()}
	}
	kept := envelope.Prune(all, false)
	return exact(kept)
}

// compileFPRow builds one priority level of the FP profile: the pruned
// (t, W_i(t)) pairs of task tk's scheduling-point search under the
// higher-priority set hp. Compile and the incremental suffix rebuilds
// share this path, so their rows are bit-identical by construction.
func compileFPRow(hp task.Set, tk task.Task) []envelope.Pair {
	pts := points.FixedPriority(hp, tk.D)
	all := make([]envelope.Pair, len(pts))
	for k, t := range pts {
		all[k] = envelope.Pair{T: t, W: RequestBound(tk.C, hp, t)}
	}
	return envelope.Prune(all, true)
}

// Alg returns the algorithm the profile was compiled for.
func (pf *Profile) Alg() Alg { return pf.alg }

// Pairs returns the number of (t, w) pairs MinQ scans per call: the
// pairs retained after pruning, or, for an unsettled exclusive EDF
// profile, every point of its demand row. It never settles.
func (pf *Profile) Pairs() int {
	if pf.unsettled {
		return len(pf.w)
	}
	n := len(pf.edf)
	for _, pts := range pf.fp {
		n += len(pts)
	}
	return n
}

// Fallbacks returns how many times this profile's incremental lineage
// fell back to a full recompile instead of patching (a hyperperiod
// change on admit or release, or a violated stream invariant). A fresh
// Compile starts at zero; the patch (and so WithTasks/WithoutTasks)
// carries the count forward and increments it on each bail.
func (pf *Profile) Fallbacks() uint64 { return pf.fallbacks }

// MemStats describes the memory retained by a profile's incremental
// state, in units that expose over-allocation rather than bytes.
type MemStats struct {
	// RetainedPoints is the pre-pruning scheduling-point count (the EDF
	// deadline stream's length; 0 for FP profiles).
	RetainedPoints int
	// LivePairs is the pair count MinQ scans (Profile.Pairs).
	LivePairs int
	// LiveCells is the number of demand-row cells (EDF: one per stream
	// point) or fixed-priority pair cells (RM/DM) the profile reads.
	LiveCells int
	// PinnedCells is the number of cells the profile's row storage keeps
	// reachable: the EDF demand row's capacity, which a stream widened
	// by departed tasks leaves above its length, or the FP rows'
	// capacities.
	PinnedCells int
}

// MaxMemRatio bounds the storage of an EDF profile's stream, owner
// counts and demand row: a patch that leaves their capacity at
// MaxMemRatio times their length or more reallocates them to exactly
// their length, so an EDF profile's MemStats.Ratio stays below it, and
// Check fails a profile that breaks the bound.
const MaxMemRatio = 4

// overGrown reports whether a slice of length n and capacity c breaks
// the MaxMemRatio bound.
func overGrown(n, c int) bool { return c != n && c >= MaxMemRatio*n }

// Ratio is PinnedCells over LiveCells: 1 when the profile's backings
// hold exactly its own state, growing as patches leave capacity behind.
// An EDF profile's Ratio stays below MaxMemRatio.
func (m MemStats) Ratio() float64 {
	if m.LiveCells <= 0 {
		return 1
	}
	return float64(m.PinnedCells) / float64(m.LiveCells)
}

// MemStats reports the profile's retained-memory shape, its LivePairs
// counting what MinQ scans (see Pairs). It is a cheap O(rows)
// accounting pass that never settles, so it is safe for concurrent use
// on a frozen profile and costs an exclusive one no envelope work.
func (pf *Profile) MemStats() MemStats {
	var m MemStats
	m.LivePairs = pf.Pairs()
	if pf.alg == EDF {
		m.RetainedPoints = len(pf.ts)
		m.LiveCells = len(pf.w)
		m.PinnedCells = cap(pf.w)
		return m
	}
	for _, row := range pf.fp {
		m.LiveCells += len(row)
		m.PinnedCells += cap(row)
	}
	return m
}

// Check audits the profile against the full-compile oracle: an exact
// comparison of the retained stream, owner counts, demand row, stream
// count and pruned pairs against a fresh Compile of the same set. It
// also fails an EDF profile whose row storage breaks the MaxMemRatio
// bound. It is the profile-level quiescent-point audit internal/chaos
// runs; it settles an unsettled profile first.
func (pf *Profile) Check() error {
	if pf.alg == EDF && (overGrown(len(pf.ts), cap(pf.ts)) || overGrown(len(pf.owners), cap(pf.owners)) || overGrown(len(pf.w), cap(pf.w))) {
		return fmt.Errorf("analysis: profile check: row capacities %d, %d and %d for %d points reach %d times the length", cap(pf.ts), cap(pf.owners), cap(pf.w), len(pf.ts), MaxMemRatio)
	}
	pf.settle()
	fresh, err := Compile(pf.tasks, pf.alg)
	if err != nil {
		return fmt.Errorf("analysis: profile check: recompile: %w", err)
	}
	if !pf.Equal(fresh) {
		return fmt.Errorf("analysis: profile check: pruned pairs differ from fresh Compile (%d vs %d)", pf.Pairs(), fresh.Pairs())
	}
	if pf.streamLen != fresh.streamLen {
		return fmt.Errorf("analysis: profile check: stream count %g, fresh Compile has %g", pf.streamLen, fresh.streamLen)
	}
	n := len(fresh.ts)
	if len(pf.ts) != n || len(pf.owners) != n || len(pf.w) != n {
		return fmt.Errorf("analysis: profile check: %d stream points, %d owner counts and %d demands, fresh Compile has %d", len(pf.ts), len(pf.owners), len(pf.w), n)
	}
	for k := range pf.ts {
		if math.Float64bits(pf.ts[k]) != math.Float64bits(fresh.ts[k]) {
			return fmt.Errorf("analysis: profile check: stream point %d is %v, fresh Compile has %v", k, pf.ts[k], fresh.ts[k])
		}
		if pf.owners[k] != fresh.owners[k] {
			return fmt.Errorf("analysis: profile check: owner count at point %d is %d, fresh Compile has %d", k, pf.owners[k], fresh.owners[k])
		}
		if pf.w[k] != fresh.w[k] {
			return fmt.Errorf("analysis: profile check: demand at point %d is %d ticks, fresh Compile has %d", k, pf.w[k], fresh.w[k])
		}
	}
	return nil
}

// MinQ computes minQ(T, alg, P) from the compiled profile: the same
// value the reference MinQ(s, alg, p) returns, bit for bit, but as a
// single pass over the precompiled pairs with zero allocations. An
// unsettled profile scans its demand row instead of the pruned pairs,
// with the naive oracle's arithmetic at every stream point. p must be
// positive (as validated by the naive MinQ); MinQ returns 0 for
// non-positive p.
func (pf *Profile) MinQ(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if pf.alg == EDF {
		q := 0.0
		if !pf.unsettled {
			for _, pr := range pf.edf {
				if v := qNeeded(pr.T, p, pr.W); v > q {
					q = v
				}
			}
			return q
		}
		// The exact demand row, as the naive oracle evaluates it. The two
		// slices have one length; bounding the walk by both drops the
		// index checks, whose panic calls would give MinQ a stack frame,
		// and the settled scan above is the period searches' inner loop.
		ts, w := pf.ts, pf.w
		for k := range min(len(ts), len(w)) {
			if v := qNeeded(ts[k], p, timeu.Ticks(w[k]).Units()); v > q {
				q = v
			}
		}
		return q
	}
	q := 0.0
	for _, pts := range pf.fp {
		best := math.Inf(1)
		for _, pr := range pts {
			if v := qNeeded(pr.T, p, pr.W); v < best {
				best = v
			}
		}
		if best > q {
			q = best
		}
	}
	return q
}
