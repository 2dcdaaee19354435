package analysis

import (
	"repro/internal/task"
)

// This file implements incremental profile updates, the run-time
// counterpart of Compile. An admission controller (internal/online)
// touches one channel per event; recompiling that channel from scratch
// makes the event cost scale with the channel — hyperperiod, deadline
// merge, demand values and envelope are all rebuilt even though a single
// task changed. There is one patch algorithm, AddTasks/DropTasks
// (mutate.go), which rewrites an exclusive profile in place:
//
//   - EDF: the profile's envelope.Index retains the pre-pruning deadline
//     stream with per-point owner counts, and the profile keeps, per
//     task, the prefix demand rows pre[i] (the exact partial sums
//     DemandBound accumulates in set order). Admitting tasks merges the
//     newcomers' deadline streams into the index (Merge), extends
//     existing prefix rows only at the brand-new points, appends the
//     newcomers' rows, and hands the patched demand row back to the
//     index (SetDemand), which re-ranks only the points whose demand
//     changed. Releasing tasks walks owner counts down (RemoveOwners),
//     compacts the solely-owned points out of the stream (Compact) and
//     re-accumulates only the suffix rows at or after the first removed
//     position. Because the retained rows are the partial sums of the
//     very accumulation a fresh Compile performs — and float64 addition
//     of an identical term sequence is deterministic — the patched
//     demand row, and therefore the maintained envelope, is
//     bit-identical to a fresh Compile of the same set.
//
//   - RM/DM: priority levels above the changed tasks keep their
//     higher-priority sets, so their rows are kept unchanged; only the
//     suffix from the highest-priority changed position down is rebuilt,
//     through the same compileFPRow used by Compile.
//
// The what-if constructors WithTasks and WithoutTasks are that same
// patch applied to a clone: Thawed's copy-on-write index clone plus a
// copy of the row headers (a frozen receiver lends its prefix rows
// instead of having them copied), patched in place, then frozen. The
// receiver is unchanged, and the result lends its rows to the next
// clone in turn.
//
// The retained streams are the memory-for-latency trade called out in
// the package comment: one float64 per task per deadline point. The
// patch falls back to a fresh Compile when patching has no advantage
// (empty profiles, or an EDF hyperperiod change, where every stream
// would extend anyway); each such bail bumps the profile's fallback
// counter (Fallbacks), and the fallback is also the property-test
// oracle (see incremental_test.go).

// WithTasks returns a new profile for the compiled set plus every task
// in add, in order, bit-identical (retained streams included) to a
// fresh Compile of the extended set. The batch pays the expensive steps
// once: the newcomers' deadline streams are merged into the retained
// index in one pass, the prefix-row matrix is extended once, and the
// envelope re-ranks once (EDF); for RM/DM the priority suffix below the
// highest-priority newcomer is rebuilt once. The receiver is unchanged;
// a frozen one lends its unmodified rows to the result. An empty batch
// returns the receiver.
func (pf *Profile) WithTasks(add []task.Task) (*Profile, error) {
	if len(add) == 0 {
		return pf, nil
	}
	c := pf.thaw(len(add), false)
	if err := c.AddTasks(add); err != nil {
		return nil, err
	}
	return c.freeze(), nil
}

// WithoutTasks returns a new profile for the compiled set minus every
// task in rem, equivalent to a fresh Compile of the survivors, with one
// owner-count walk, one stream compaction, one suffix re-accumulation
// and one envelope re-rank for the whole batch. Every task must be
// present (exact field equality; a value listed twice must be present
// twice). The receiver is unchanged; an empty batch returns it.
func (pf *Profile) WithoutTasks(rem []task.Task) (*Profile, error) {
	if len(rem) == 0 {
		return pf, nil
	}
	c := pf.thaw(0, false)
	if err := c.DropTasks(rem); err != nil {
		return nil, err
	}
	return c.freeze(), nil
}

// Tasks returns a copy of the compiled task set: in declaration order
// for EDF, in priority order for RM/DM.
func (pf *Profile) Tasks() task.Set {
	return append(task.Set(nil), pf.tasks...)
}

// Equal reports whether two profiles retain bit-identical pruned pairs
// for the same algorithm — the exactness guarantee of the incremental
// patch relative to a fresh Compile.
func (pf *Profile) Equal(o *Profile) bool {
	if pf.alg != o.alg || len(pf.edf) != len(o.edf) || len(pf.fp) != len(o.fp) {
		return false
	}
	for i := range pf.edf {
		if pf.edf[i] != o.edf[i] {
			return false
		}
	}
	for i := range pf.fp {
		if len(pf.fp[i]) != len(o.fp[i]) {
			return false
		}
		for k := range pf.fp[i] {
			if pf.fp[i][k] != o.fp[i][k] {
				return false
			}
		}
	}
	return true
}

// priorityLess is the strict priority order of a fixed-priority Alg —
// the comparator task.SortedRM / SortedDM sort by.
func (a Alg) priorityLess(x, y task.Task) bool {
	if a == RM {
		return task.LessRM(x, y)
	}
	return task.LessDM(x, y)
}
