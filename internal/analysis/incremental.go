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
//     stream with per-point owner counts, and the profile keeps one
//     demand row W in integer ticks along it. Admitting tasks merges the
//     newcomers' deadline streams into the index (Merge), gives each
//     brand-new point its predecessor's demand and adds each newcomer's
//     jobs in one walk. Releasing tasks walks owner counts down
//     (RemoveOwners), subtracts the leavers' jobs, and compacts the
//     solely-owned points out of the stream and the row (Compact).
//     Integer sums do not depend on their order, so the patched row is
//     identical to a fresh Compile of the same set. The patch leaves the
//     envelope unsettled: MinQ scans the row until the profile is
//     frozen or audited, which hands the row back to the index once
//     (SetDemand, re-ranking only the points whose demand changed since
//     the last settle), so the settled envelope is identical too.
//
//   - RM/DM: priority levels above the changed tasks keep their
//     higher-priority sets, so their rows are kept unchanged; only the
//     suffix from the highest-priority changed position down is rebuilt,
//     through the same compileFPRow used by Compile.
//
// The what-if constructors WithTasks and WithoutTasks are that same
// patch applied to a clone: Thawed's copy-on-write index clone plus a
// copy of the demand row, patched in place, then settled and frozen.
// The receiver is unchanged.
//
// The retained stream and row are the memory-for-latency trade called
// out in the package comment: one int64 per deadline point. The patch
// falls back to a fresh Compile when patching has no advantage (empty
// profiles, or an EDF hyperperiod change, where every stream would
// extend anyway); each such bail bumps the profile's fallback counter
// (Fallbacks), and the fallback is also the property-test oracle (see
// incremental_test.go).

// WithTasks returns a new profile for the compiled set plus every task
// in add, in order, identical (retained streams included) to a fresh
// Compile of the extended set. The batch pays the expensive steps once:
// the newcomers' deadline streams are merged into the retained index in
// one pass, the demand row is patched once, and the envelope re-ranks
// once (EDF); for RM/DM the priority suffix below the highest-priority
// newcomer is rebuilt once. The receiver is unchanged. An empty batch
// returns the receiver.
func (pf *Profile) WithTasks(add []task.Task) (*Profile, error) {
	if len(add) == 0 {
		return pf, nil
	}
	c := pf.thaw(len(add))
	if err := c.AddTasks(add); err != nil {
		return nil, err
	}
	return c.freeze(), nil
}

// WithoutTasks returns a new profile for the compiled set minus every
// task in rem, equivalent to a fresh Compile of the survivors, with one
// owner-count walk, one stream compaction, one demand-row patch and one
// envelope re-rank for the whole batch. Every task must be present
// (exact field equality; a value listed twice must be present twice).
// The receiver is unchanged; an empty batch returns it.
func (pf *Profile) WithoutTasks(rem []task.Task) (*Profile, error) {
	if len(rem) == 0 {
		return pf, nil
	}
	c := pf.thaw(0)
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
// patch relative to a fresh Compile. It settles an unsettled operand
// first, so the caller must own any exclusive profile it passes.
func (pf *Profile) Equal(o *Profile) bool {
	pf.settle()
	o.settle()
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
