// Package faults models transient soft errors (Section 2.1 of the
// paper): a low-energy particle strikes one core, the faulty condition
// lasts a short bounded interval, and after it clears only wrong values
// may remain. The paper's analysis rests on the single-transient-fault
// assumption — at most one fault affects the system at a time — which
// this package can both enforce (ValidateSingleFault) and generate
// within (the injectors keep faults disjoint).
//
// Beyond the simulator's job-level fault handling, a fault schedule can
// be rendered as a capacity scenario (CapacitySteps) for the online
// manager's degraded-mode operation: each fault revokes the struck
// core's share of the period for its duration.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/platform"
	"repro/internal/timeu"
)

// NumCores is the default platform width, threaded from
// internal/platform — the paper's 4-core lock-step multiprocessor.
// Scenario generators and validators accept an explicit core count (the
// *On variants, Poisson.Cores) for non-paper platforms; the plain forms
// keep this default.
const NumCores = platform.NumCores

// Fault is one transient soft error.
type Fault struct {
	// At is the strike instant.
	At timeu.Ticks
	// Core is the struck core, in [0, NumCores) (or [0, cores) for the
	// explicit-width validators). A single particle can strike only one
	// core, even on a multicore die (Section 2.1).
	Core int
	// Duration is how long the faulty condition lasts. The core
	// misbehaves during [At, At+Duration).
	Duration timeu.Ticks
}

// End returns the instant the faulty condition clears.
func (f Fault) End() timeu.Ticks { return f.At + f.Duration }

// Validate checks the fault's fields against the default platform
// width.
func (f Fault) Validate() error { return f.ValidateOn(NumCores) }

// ValidateOn checks the fault's fields against a platform with the
// given number of cores.
func (f Fault) ValidateOn(cores int) error {
	if cores <= 0 {
		return fmt.Errorf("faults: platform must have at least one core, got %d", cores)
	}
	if f.At < 0 {
		return fmt.Errorf("faults: strike time %d negative", f.At)
	}
	if f.Core < 0 || f.Core >= cores {
		return fmt.Errorf("faults: core %d out of range [0, %d)", f.Core, cores)
	}
	if f.Duration <= 0 {
		return fmt.Errorf("faults: duration %d must be positive", f.Duration)
	}
	return nil
}

// ValidateSingleFault checks the single-transient-fault assumption over
// a schedule of faults on the default platform width: strikes sorted in
// time, and no fault begins before the previous one (plus a recovery
// gap) has cleared.
func ValidateSingleFault(fs []Fault, recoveryGap timeu.Ticks) error {
	return ValidateSingleFaultOn(fs, recoveryGap, NumCores)
}

// ValidateSingleFaultOn is ValidateSingleFault for a platform with the
// given number of cores.
func ValidateSingleFaultOn(fs []Fault, recoveryGap timeu.Ticks, cores int) error {
	for i, f := range fs {
		if err := f.ValidateOn(cores); err != nil {
			return err
		}
		if i == 0 {
			continue
		}
		prev := fs[i-1]
		if f.At < prev.At {
			return fmt.Errorf("faults: schedule not sorted at index %d", i)
		}
		if f.At < prev.End()+recoveryGap {
			return fmt.Errorf("faults: fault at %s overlaps fault ending %s (+gap %s): single-fault assumption violated",
				f.At, prev.End(), recoveryGap)
		}
	}
	return nil
}

// Injector produces a fault schedule over a horizon.
type Injector interface {
	// Schedule returns the faults striking within [0, horizon), sorted
	// by strike time and respecting the single-fault assumption.
	Schedule(horizon timeu.Ticks) ([]Fault, error)
}

// Script replays a fixed fault list. It implements Injector.
type Script []Fault

// Schedule returns the scripted faults within the horizon, sorted, after
// validating the single-fault assumption.
func (s Script) Schedule(horizon timeu.Ticks) ([]Fault, error) {
	out := make([]Fault, 0, len(s))
	for _, f := range s {
		if f.At < horizon {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	if err := ValidateSingleFault(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// Poisson injects faults with exponentially distributed inter-arrival
// times (the usual soft-error model: strikes are independent rare
// events), uniform core choice and fixed duration. Inter-arrival times
// shorter than the previous fault's duration are stretched so the
// single-fault assumption holds by construction, mirroring the paper's
// observation that realistic soft-error rates leave time to recover
// between faults.
type Poisson struct {
	// Rate is the expected number of faults per time unit. Soft-error
	// rates are tiny; simulations use exaggerated rates to exercise the
	// machinery.
	Rate float64
	// Duration of each fault condition.
	Duration timeu.Ticks
	// Seed makes runs reproducible.
	Seed int64
	// Cores is the platform width the struck core is drawn from;
	// 0 means the default NumCores.
	Cores int
}

// Schedule generates the Poisson fault schedule over [0, horizon).
func (p Poisson) Schedule(horizon timeu.Ticks) ([]Fault, error) {
	if p.Rate < 0 {
		return nil, fmt.Errorf("faults: negative rate %g", p.Rate)
	}
	if p.Rate == 0 {
		return nil, nil
	}
	if p.Duration <= 0 {
		return nil, fmt.Errorf("faults: duration %d must be positive", p.Duration)
	}
	cores := p.Cores
	if cores == 0 {
		cores = NumCores
	}
	if cores < 0 {
		return nil, fmt.Errorf("faults: platform must have at least one core, got %d", cores)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var out []Fault
	now := timeu.Ticks(0)
	for {
		gap := timeu.FromUnits(rng.ExpFloat64() / p.Rate)
		if gap < 1 {
			gap = 1
		}
		now += gap
		if now >= horizon {
			break
		}
		out = append(out, Fault{At: now, Core: rng.Intn(cores), Duration: p.Duration})
		now += p.Duration // next inter-arrival starts after the clear
	}
	if err := ValidateSingleFaultOn(out, 0, cores); err != nil {
		return nil, err // unreachable by construction; defensive
	}
	return out, nil
}

// Step is one capacity transition of a degraded-mode scenario: at At,
// Capacity time units of the period are revoked (a core struck) or
// restored (the fault cleared). Steps drive online.Manager.Revoke and
// Restore.
type Step struct {
	// At is the transition instant.
	At timeu.Ticks
	// Capacity is the amount revoked or restored, in analysis time
	// units.
	Capacity float64
	// Restore distinguishes a restore (fault cleared) from a revoke
	// (fault struck).
	Restore bool
	// Core is the core whose fault caused the transition.
	Core int
}

// CapacitySteps renders a fault schedule as a capacity scenario for the
// online manager: each fault revokes the struck core's share of the
// period — period/cores — at its strike instant and restores it when
// the faulty condition clears. The schedule must satisfy the
// single-fault assumption on the given platform width (cores ≤ 0 means
// the default NumCores); the returned steps are sorted by time, revoke
// before restore never overlapping by construction.
func CapacitySteps(fs []Fault, period float64, cores int) ([]Step, error) {
	if cores <= 0 {
		cores = NumCores
	}
	if period <= 0 {
		return nil, fmt.Errorf("faults: period %g must be positive", period)
	}
	if err := ValidateSingleFaultOn(fs, 0, cores); err != nil {
		return nil, err
	}
	share := period / float64(cores)
	out := make([]Step, 0, 2*len(fs))
	for _, f := range fs {
		out = append(out,
			Step{At: f.At, Capacity: share, Core: f.Core},
			Step{At: f.End(), Capacity: share, Restore: true, Core: f.Core},
		)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}
