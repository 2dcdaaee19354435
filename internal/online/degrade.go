package online

import (
	"fmt"

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
// Revocations stack; Revoked reports the running total.
//
// Revoke recomputes all three mode slots to their minima, so any
// padding a hand-built initial configuration carried is compacted —
// under capacity loss every spare time unit is needed.
//
// If even the empty task set does not fit (the mode overheads alone
// exceed the remaining capacity) the revocation is rejected and
// nothing changes. Failures wrap ErrRejected.
func (m *Manager) Revoke(capacity float64, pol Policy) (*DegradeReport, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: revoked capacity %g must be positive", ErrRejected, capacity)
	}
	touched := m.lockAll()
	defer unlockChannels(touched)
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
	live, evicted, err := m.shedLocked(touched, append(task.Set(nil), old.live...), pol, newRevoked)
	next, _, _ := m.candidateLocked(touched)
	if err == nil {
		err = next.Validate()
	}
	if err != nil {
		// Cannot happen: the victims come from the live snapshot, and
		// evicting every task leaves the overheads, which fit.
		// Re-admit the evicted tasks and reject.
		m.readmitEvicted(touched, evicted)
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	m.installProfiles(touched)
	parked := append(append(task.Set(nil), old.parked...), evicted...)
	m.storeSnapLocked(next, live, newRevoked, parked)
	m.nameMu.Lock()
	for _, t := range evicted {
		m.names[t.Name].parked = true
	}
	m.nameMu.Unlock()
	if mt := m.met.Load(); mt != nil {
		mt.Revokes.Inc()
		mt.TasksEvicted.Add(uint64(len(evicted)))
	}
	m.emit(Event{Kind: trace.Degraded, Revoked: newRevoked})
	if len(evicted) > 0 {
		m.emit(Event{Kind: trace.Evicted, Tasks: evicted.Names(), Revoked: newRevoked})
	}
	return &DegradeReport{Revoked: newRevoked, Evicted: evicted, Parked: parked}, nil
}

// readmitEvicted is the defensive rollback of an aborted eviction
// sweep: the in-place drops are re-applied in reverse. Only reachable
// through cannot-happen paths; the restored profiles hold the original
// task sets (membership, not original positions).
func (m *Manager) readmitEvicted(touched []touchedChannel, evicted task.Set) {
	for i := len(evicted) - 1; i >= 0; i-- {
		t := evicted[i]
		tc := findTouched(touched, t)
		_ = tc.st.prof.AddTasks(task.Set{t})
		tc.minq = tc.st.prof.MinQ(m.p)
	}
}

// Restore returns capacity time units withdrawn by earlier Revoke
// calls and readmits parked tasks into the recovered room, highest
// value first under pol — each readmission is one incremental profile
// patch, kept only if the grown slots still fit. Tasks that do not fit
// yet stay parked for the next Restore. Restoring more than is
// currently revoked is rejected. Failures wrap ErrRejected.
func (m *Manager) Restore(capacity float64, pol Policy) (*DegradeReport, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: restored capacity %g must be positive", ErrRejected, capacity)
	}
	touched := m.lockAll()
	defer unlockChannels(touched)
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	old := m.cur.Load()
	if capacity > old.revoked+core.SlotFitTol {
		return nil, fmt.Errorf("%w: restoring %.6f but only %.6f is revoked", ErrRejected, capacity, old.revoked)
	}
	newRevoked := old.revoked - capacity
	if newRevoked < 0 {
		newRevoked = 0
	}
	readmitted, _ := m.readmitLocked(touched, append(task.Set(nil), old.parked...), pol, newRevoked)
	next, _, _ := m.candidateLocked(touched)
	if err := next.Validate(); err != nil {
		// Cannot happen: the candidate passed the fit check. Undo the
		// trial admissions before rejecting.
		for i := len(readmitted) - 1; i >= 0; i-- {
			t := readmitted[i]
			tc := findTouched(touched, t)
			_ = tc.st.prof.DropTasks(task.Set{t})
			tc.minq = tc.st.prof.MinQ(m.p)
		}
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	m.installProfiles(touched)
	// Keep eviction order for the surviving parked set.
	live := append(append(task.Set(nil), old.live...), readmitted...)
	parked := make(task.Set, 0, len(old.parked)-len(readmitted))
	for _, t := range old.parked {
		if _, back := readmitted.Find(t.Name); !back {
			parked = append(parked, t)
		}
	}
	m.storeSnapLocked(next, live, newRevoked, parked)
	m.nameMu.Lock()
	for _, t := range readmitted {
		m.names[t.Name].parked = false
	}
	m.nameMu.Unlock()
	if mt := m.met.Load(); mt != nil {
		mt.Restores.Inc()
		mt.TasksReadmitted.Add(uint64(len(readmitted)))
	}
	m.emit(Event{Kind: trace.Restored, Revoked: newRevoked})
	if len(readmitted) > 0 {
		m.emit(Event{Kind: trace.Readmitted, Tasks: readmitted.Names(), Revoked: newRevoked})
	}
	return &DegradeReport{Revoked: newRevoked, Readmitted: readmitted, Parked: parked}, nil
}
