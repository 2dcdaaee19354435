package online

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/trace"
)

// DegradeReport is the typed outcome of a capacity transition.
type DegradeReport struct {
	// Revoked is the total capacity withdrawn after the operation.
	Revoked float64
	// Evicted holds the tasks this Revoke evicted, in eviction order
	// (lowest value first).
	Evicted task.Set
	// Readmitted holds the tasks this Restore readmitted, in
	// readmission order (highest value first).
	Readmitted task.Set
	// Parked holds the tasks still parked after the operation.
	Parked task.Set
}

// Revoke models a capacity loss — a struck core whose recovery eats
// into the period, a mode squeezed by an external reconfiguration —
// by withdrawing capacity time units from the period. The live
// configuration is recomputed on the reduced capacity P − revoked; if
// the survivors' slots no longer fit, the lowest-value tasks under pol
// are evicted one at a time (one incremental profile patch each) until
// they do. Evicted tasks are parked, not forgotten: their names stay
// claimed and Restore readmits them by value as capacity returns.
// Anonymous tasks, which only an initial task set can hold, are never
// evicted, since a parked task is held by its name. Revocations stack;
// Revoked reports the running total. The eviction is published like
// any reconfiguration: the evicted tasks leave the live set in place
// and join the parked list in eviction order.
//
// Revoke recomputes all three mode slots to their minima, so any
// padding a hand-built initial configuration carried is compacted —
// under capacity loss every spare time unit is needed.
//
// A capacity that is not positive and finite is rejected, and so is a
// revocation that no eviction makes fit (the mode overheads, or the
// anonymous tasks, alone exceed the remaining capacity); either way
// nothing changes. Failures wrap ErrRejected.
func (m *Manager) Revoke(capacity float64, pol Policy) (*DegradeReport, error) {
	if !(capacity > 0) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("%w: revoked capacity %g must be positive and finite", ErrRejected, capacity)
	}
	sc := opPool.Get().(*opScratch)
	defer opPool.Put(sc)
	m.lockAll(sc)
	defer sc.unlock()
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	old := m.cur.Load()
	newRevoked := old.revoked + capacity
	// Evicting everything leaves the overheads alone; when even they do
	// not fit, reject before any profile is patched.
	if m.over.Total() > m.p-newRevoked+core.SlotFitTol {
		return nil, fmt.Errorf("%w: revoking %.6f leaves capacity %.6f but the mode overheads alone need %.6f",
			ErrRejected, capacity, m.p-newRevoked, m.over.Total())
	}
	cands := sc.live[:0]
	for _, t := range old.live {
		if t.Name != "" {
			cands = append(cands, t)
		}
	}
	sc.live = cands
	_, evicted, err := m.shedLocked(sc, cands, pol, newRevoked)
	next, _, _ := m.candidateLocked(sc.touched)
	if err == nil {
		err = next.Validate()
	}
	if err != nil {
		m.undo(sc, 0)
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	m.publishLocked(sc.touched, delta{leave: evicted, park: true, revoked: newRevoked}, next, old)
	if mt := m.met.Load(); mt != nil {
		mt.Revokes.Inc()
		mt.TasksEvicted.Add(uint64(len(evicted)))
	}
	m.emit(Event{Kind: trace.Degraded, Revoked: newRevoked})
	if len(evicted) > 0 {
		m.emit(Event{Kind: trace.Evicted, Tasks: evicted.Names(), Revoked: newRevoked})
	}
	return &DegradeReport{Revoked: newRevoked, Evicted: evicted, Parked: append(task.Set(nil), m.cur.Load().parked...)}, nil
}

// Restore returns capacity time units withdrawn by earlier Revoke
// calls and readmits parked tasks into the recovered room, highest
// value first under pol — each readmission is one incremental profile
// patch, kept only if the grown slots still fit. Tasks that do not fit
// yet stay parked for the next Restore. The readmission is published
// like any reconfiguration: the readmitted tasks are appended to the
// live set in readmission order and leave the parked list in place.
// A capacity that is not positive and finite, or more than is
// currently revoked, is rejected. Failures wrap ErrRejected.
func (m *Manager) Restore(capacity float64, pol Policy) (*DegradeReport, error) {
	if !(capacity > 0) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("%w: restored capacity %g must be positive and finite", ErrRejected, capacity)
	}
	sc := opPool.Get().(*opScratch)
	defer opPool.Put(sc)
	m.lockAll(sc)
	defer sc.unlock()
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	old := m.cur.Load()
	if capacity > old.revoked+core.SlotFitTol {
		return nil, fmt.Errorf("%w: restoring %.6f but only %.6f is revoked", ErrRejected, capacity, old.revoked)
	}
	newRevoked := max(old.revoked-capacity, 0)
	cands := append(sc.parked[:0], old.parked...)
	sc.parked = cands
	readmitted, _ := m.readmitLocked(sc, cands, pol, newRevoked)
	next, _, _ := m.candidateLocked(sc.touched)
	if err := next.Validate(); err != nil {
		// Cannot happen: the candidate passed the fit check.
		m.undo(sc, 0)
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	m.publishLocked(sc.touched, delta{join: readmitted, unpark: readmitted, revoked: newRevoked}, next, old)
	if mt := m.met.Load(); mt != nil {
		mt.Restores.Inc()
		mt.TasksReadmitted.Add(uint64(len(readmitted)))
	}
	m.emit(Event{Kind: trace.Restored, Revoked: newRevoked})
	if len(readmitted) > 0 {
		m.emit(Event{Kind: trace.Readmitted, Tasks: readmitted.Names(), Revoked: newRevoked})
	}
	return &DegradeReport{Revoked: newRevoked, Readmitted: readmitted, Parked: append(task.Set(nil), m.cur.Load().parked...)}, nil
}
