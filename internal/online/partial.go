package online

import (
	"fmt"
	"slices"

	"repro/internal/task"
	"repro/internal/trace"
)

// Policy ranks tasks for the robustness decisions that must pick
// victims: partial admission sheds the lowest-value members of an
// overflowing batch, Revoke evicts the lowest-value live tasks, and
// Restore readmits parked tasks highest-value first. The zero Policy
// values every task at 1, so victim selection degenerates to
// name-ordered (deterministic, but value-blind).
type Policy struct {
	// Value returns the task's worth; higher values are kept longer and
	// readmitted sooner. nil values every task at 1.
	Value func(task.Task) float64
}

func (p Policy) value(t task.Task) float64 {
	if p.Value == nil {
		return 1
	}
	return p.Value(t)
}

// shedBefore orders victims: lower value first, ties broken by name so
// the choice is deterministic.
func (p Policy) shedBefore(a, b task.Task) bool {
	va, vb := p.value(a), p.value(b)
	if va != vb {
		return va < vb
	}
	return a.Name < b.Name
}

// AdmitReport is the typed outcome of a partial admission: which batch
// members made it in and, member by member, why the rest did not.
type AdmitReport struct {
	// Admitted holds the members now live, in admission order: batch
	// order for members that were never shed, then any members the
	// re-add pass recovered, highest value first.
	Admitted task.Set
	// Rejected holds one verdict per member not admitted: invalid,
	// name-taken, busy, or shed by the value policy.
	Rejected []TaskVerdict
	// Overflows snapshots the capacity overflow the first failed fit
	// reported — the modes whose slots did not fit before any shedding.
	// Empty when the whole batch fit.
	Overflows []SlotOverflow
}

// AllAdmitted reports whether every batch member was admitted.
func (r *AdmitReport) AllAdmitted() bool { return len(r.Rejected) == 0 }

// Err converts the report to an error: nil when everything was
// admitted, otherwise a *Rejection carrying the verdicts and overflow
// detail. The rejection is ErrBusy-retryable only when every rejected
// member failed on a transient in-flight conflict.
func (r *AdmitReport) Err() error {
	if r.AllAdmitted() {
		return nil
	}
	busy := true
	for _, v := range r.Rejected {
		if v.Code != VerdictBusy {
			busy = false
			break
		}
	}
	return &Rejection{Overflows: r.Overflows, Verdicts: r.Rejected, Busy: busy}
}

// AdmitBatchPartial admits as much of the batch as fits. Where
// AdmitBatch is all-or-nothing, this path degrades gracefully: members
// that fail validation or collide on a name are reported individually
// (they do not poison the rest), and when the survivors' slots
// overflow the available capacity the lowest-value members under pol
// are shed one at a time — one in-place profile patch per shed
// (analysis.Profile.DropTasks), not a recompile per candidate —
// until the remainder fits. A final re-add pass retries the shed
// members in descending value order, so the admitted set is
// greedy-maximal: no shed task could be added back without breaking
// feasibility (demand is monotone in the task set, so a task that does
// not fit next to the final admitted set would not fit next to any
// superset either).
//
// A batch whose profile patch fails on some channel (an unanalysable
// hyperperiod, say) is rejected whole: that channel's members are
// invalid with the analysis error, the other reserved members are
// rejected with them.
//
// The returned report lists the admitted members and a verdict for
// every other one; report.Err() converts it to a typed *Rejection.
// The error return is reserved for internal failures; a batch that was
// merely shed or rejected returns a nil error. When everything fits,
// the result — configuration, profiles, patch counts — is
// bit-identical to AdmitBatch of the same batch.
func (m *Manager) AdmitBatchPartial(batch []task.Task, pol Policy) (*AdmitReport, error) {
	report, err := m.admitBatchPartial(batch, pol)
	if mt := m.met.Load(); mt != nil && err == nil {
		mt.PartialBatches.Inc()
		mt.TasksAdmitted.Add(uint64(len(report.Admitted)))
		shed := 0
		for _, v := range report.Rejected {
			if v.Code == VerdictShed {
				shed++
			}
		}
		mt.TasksShed.Add(uint64(shed))
	}
	return report, err
}

func (m *Manager) admitBatchPartial(batch []task.Task, pol Policy) (*AdmitReport, error) {
	report := &AdmitReport{}
	if len(batch) == 0 {
		return report, nil
	}
	sc := opPool.Get().(*opScratch)
	defer opPool.Put(sc)
	valid := sc.norm[:0]
	for _, t := range batch {
		t, bad := checkMember(t, valid)
		if bad != "" {
			report.Rejected = append(report.Rejected, TaskVerdict{Task: t, Code: VerdictInvalid, Detail: bad})
			continue
		}
		valid = append(valid, t)
	}
	sc.norm = valid
	reserved, conflicts := m.reservePartial(valid)
	report.Rejected = append(report.Rejected, conflicts...)
	if len(reserved) == 0 {
		return report, nil
	}
	m.lockChannels(sc, reserved)
	defer sc.unlock()
	if tc, err := m.patchGroups(sc, reserved, true); err != nil {
		m.unreserveAdmit(reserved)
		report.Rejected = append(report.Rejected, patchRejection(reserved, tc, err).Verdicts...)
		return report, nil
	}
	admitted, shed, overflows := m.commitPartial(sc, reserved, pol)
	report.Admitted = admitted
	report.Overflows = overflows
	if len(shed) > 0 {
		for _, t := range shed {
			report.Rejected = append(report.Rejected, TaskVerdict{
				Task: t, Code: VerdictShed,
				Detail: fmt.Sprintf("shed by value policy (value %g) to fit the available capacity", pol.value(t)),
			})
		}
		m.unreserveAdmit(shed)
		m.emit(Event{Kind: trace.Shed, Tasks: shed.Names(), Revoked: m.Revoked()})
	}
	return report, nil
}

// reservePartial claims as many of the batch's names as are free,
// returning the reserved members, which share batch's backing, and a
// verdict for each collision. Unlike reserveAdmit a collision does not
// abort the batch.
func (m *Manager) reservePartial(batch task.Set) (reserved task.Set, conflicts []TaskVerdict) {
	m.nameMu.Lock()
	defer m.nameMu.Unlock()
	reserved = batch[:0]
	for _, t := range batch {
		if e, exists := m.names[t.Name]; exists {
			conflicts = append(conflicts, TaskVerdict{Task: t, Code: collisionVerdict(e), Detail: collisionDetail(e)})
			continue
		}
		m.names[t.Name] = m.newEntryLocked(t, true)
		reserved = append(reserved, t)
	}
	return reserved, conflicts
}

// commitPartial is the shedding decide-and-swap: starting from the
// candidate profiles holding the whole reserved set, it sheds the
// lowest-value members until the slots fit the unrevoked capacity,
// then retries the shed members highest-value first so the admitted
// set is greedy-maximal under the policy order (shedding is greedy, so
// an early cheap shed can leave room a later victim's departure opened
// up). Publishes the surviving configuration unless everything was
// shed; a failure that cannot happen undoes every patch and admits
// nothing. Caller holds the touched channels' locks and unreserves the
// shed names afterwards.
func (m *Manager) commitPartial(sc *opScratch, reserved task.Set, pol Policy) (admitted task.Set, shed task.Set, overflows []SlotOverflow) {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	old := m.cur.Load()
	admitted = append(task.Set(nil), reserved...)
	next, reshaped, binding := m.candidateLocked(sc.touched)
	if !m.fits(next, old.revoked) {
		// Snapshot the pre-shedding overflow for the report.
		overflows = m.slotOverflows(next, reshaped, binding, old.revoked)
		var err error
		if admitted, shed, err = m.shedLocked(sc, admitted, pol, old.revoked); err != nil {
			// Cannot happen: every member was patched in above, and with
			// all of them shed the candidate is the committed state, which
			// fits.
			m.undo(sc, 0)
			return nil, append(shed, admitted...), overflows
		}
		var back task.Set
		back, shed = m.readmitLocked(sc, shed, pol, old.revoked)
		admitted = append(admitted, back...)
		next, _, _ = m.candidateLocked(sc.touched)
	}
	if len(admitted) == 0 {
		return nil, shed, overflows
	}
	if err := next.Validate(); err != nil {
		// Cannot happen: the candidate passed the fit check.
		m.undo(sc, 0)
		return nil, append(shed, admitted...), overflows
	}
	// admitted is in profile-append order: batch order for the
	// never-shed members, then the re-added ones in readmission order.
	// Demand does not depend on it (EDF rows are integer tick sums, and
	// RM/DM rows follow the priority order, made total by the name
	// tie-break), but Tasks() promises it: admissions are appended in
	// the order they were admitted, as FuzzManagerOps' model pins.
	m.publishLocked(sc.touched, delta{join: admitted, revoked: old.revoked}, next, old)
	return admitted, shed, overflows
}

// shedLocked drops the lowest-value task of cands under pol — one
// logged in-place profile patch each — until the touched channels'
// candidate slots fit the period less revoked. It returns the
// survivors, in their order in cands (whose backing they share), and
// the victims in shed order. The error reports a patch that failed,
// with its victim still among the survivors, or slots that do not fit
// with nothing left to shed; the caller undoes the log. Caller holds
// commitMu and the touched channels' locks.
func (m *Manager) shedLocked(sc *opScratch, cands task.Set, pol Policy, revoked float64) (kept, shed task.Set, err error) {
	kept = cands
	for {
		if next, _, _ := m.candidateLocked(sc.touched); m.fits(next, revoked) {
			return kept, shed, nil
		}
		if len(kept) == 0 {
			return kept, shed, fmt.Errorf("no shed makes the slots fit %.6f", m.p-revoked)
		}
		victim := 0
		for i := 1; i < len(kept); i++ {
			if pol.shedBefore(kept[i], kept[victim]) {
				victim = i
			}
		}
		t := kept[victim]
		if err := m.patchOne(sc, t, false); err != nil {
			return kept, shed, fmt.Errorf("dropping %q: %v", t.Name, err)
		}
		kept = slices.Delete(kept, victim, victim+1)
		shed = append(shed, t)
	}
}

// readmitLocked tries cands highest value first under pol — one logged
// in-place profile patch each — and keeps every one whose grown slots
// still fit the period less revoked; a trial that does not fit is
// undone. It sorts cands in place and returns the readmitted tasks in
// readmission order and the rest in value order, the rest sharing
// cands' backing. Caller holds commitMu and the touched channels'
// locks.
func (m *Manager) readmitLocked(sc *opScratch, cands task.Set, pol Policy, revoked float64) (back, rest task.Set) {
	slices.SortStableFunc(cands, func(a, b task.Task) int {
		switch {
		case pol.shedBefore(b, a):
			return -1
		case pol.shedBefore(a, b):
			return 1
		}
		return 0
	})
	rest = cands[:0]
	for _, t := range cands {
		n := len(sc.log)
		if err := m.patchOne(sc, t, true); err != nil {
			rest = append(rest, t)
			continue
		}
		if next, _, _ := m.candidateLocked(sc.touched); m.fits(next, revoked) {
			back = append(back, t)
			continue
		}
		m.undo(sc, n)
		rest = append(rest, t)
	}
	return back, rest
}
