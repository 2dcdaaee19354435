// Package core implements the paper's primary contribution: the flexible
// time-partitioned management scheme of the 4-core lock-step platform
// (Sections 2.4 and 3.3).
//
// The timeline is divided into periods of length P. Every period holds
// one slot per operating mode, in the fixed order FT, FS, NF
// (Figure 2). Switching out of mode k costs overhead O_k, paid at the
// start of mode k's slot, so of a slot Q_k only Q̃_k = Q_k − O_k is
// usable by tasks. A slot of usable length Q̃_k per period P supplies
// each channel of mode k with rate α_k = Q̃_k/P after a worst-case delay
// Δ_k = P − Q̃_k (Eq. 2).
//
// The integration conditions are
//
//	Q_k − max_i minQ(T_k^i, alg, P) ≥ O_k          (Eqs. 12–14)
//
// and their side-by-side sum, the feasibility condition on the period:
//
//	lhs(P) = P − Σ_k max_i minQ(T_k^i, alg, P) ≥ O_tot   (Eq. 15)
package core

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/supply"
	"repro/internal/task"
)

// SlotFitTol is the tolerance every slot-fit boundary check uses when
// comparing the slots' total against the period: a configuration with
// Q_FT + Q_FS + Q_NF ≤ P + SlotFitTol fits. Configurations produced by
// inverting the feasibility theorems sit exactly on the boundary, where
// a strict comparison would flip on the last bit. One shared constant —
// used by Config.Validate, both ConfigFor implementations and the online
// admission controller — guarantees that a boundary configuration the
// design layer accepts is never rejected when the identical reshape
// arrives at run time.
const SlotFitTol = 1e-9

// PerMode holds one float64 per operating mode. It is used for slot
// lengths, usable quanta, overheads and utilisations.
type PerMode struct {
	FT, FS, NF float64
}

// Of returns the value for mode m.
func (p PerMode) Of(m task.Mode) float64 {
	switch m {
	case task.FT:
		return p.FT
	case task.FS:
		return p.FS
	case task.NF:
		return p.NF
	}
	return 0
}

// With returns a copy with the value for mode m replaced by v.
func (p PerMode) With(m task.Mode, v float64) PerMode {
	switch m {
	case task.FT:
		p.FT = v
	case task.FS:
		p.FS = v
	case task.NF:
		p.NF = v
	}
	return p
}

// Total returns FT + FS + NF.
func (p PerMode) Total() float64 { return p.FT + p.FS + p.NF }

// Overheads are the per-mode switch costs O_k. O_tot = Total().
type Overheads = PerMode

// UniformOverheads splits a total overhead budget equally over the
// three mode switches, as in the paper's worked example where only
// O_tot = 0.05 is specified.
func UniformOverheads(total float64) Overheads {
	third := total / 3
	return Overheads{FT: third, FS: third, NF: third}
}

// Config is a concrete platform configuration: the period, the three
// slot lengths (inclusive of their overheads) and the overheads.
type Config struct {
	P float64   // slot cycle period
	Q PerMode   // slot lengths Q_k (include the overhead O_k)
	O Overheads // mode-switch overheads O_k
}

// UsableQ returns Q̃_k = Q_k − O_k for mode m.
func (c Config) UsableQ(m task.Mode) float64 { return c.Q.Of(m) - c.O.Of(m) }

// Alpha returns the supply rate α_k = Q̃_k / P of mode m (Eq. 2).
func (c Config) Alpha(m task.Mode) float64 { return c.UsableQ(m) / c.P }

// Delta returns the supply delay Δ_k = P − Q̃_k of mode m (Eq. 2).
func (c Config) Delta(m task.Mode) float64 { return c.P - c.UsableQ(m) }

// Supply returns the bounded-delay supply abstraction of mode m.
func (c Config) Supply(m task.Mode) analysis.Supply {
	return analysis.Supply{Alpha: c.Alpha(m), Delta: c.Delta(m)}
}

// ExactSupply returns the exact Lemma 1 supply function of mode m.
func (c Config) ExactSupply(m task.Mode) supply.Slot {
	return supply.Slot{P: c.P, Q: c.UsableQ(m)}
}

// SlotStart returns the offset of mode m's slot within the period. The
// slack left after the three slots (if any) trails at the end of the
// period; the slots themselves are packed back-to-back from time 0 in
// the order FT, FS, NF of Figure 2.
func (c Config) SlotStart(m task.Mode) float64 {
	switch m {
	case task.FT:
		return 0
	case task.FS:
		return c.Q.FT
	case task.NF:
		return c.Q.FT + c.Q.FS
	}
	return 0
}

// Slack returns the part of the period not allocated to any slot:
// P − (Q_FT + Q_FS + Q_NF). It is the bandwidth that can be
// redistributed among the modes at run time (Section 4's second design
// goal).
func (c Config) Slack() float64 { return c.P - c.Q.Total() }

// Validate checks structural sanity: positive, finite period,
// non-negative overheads, each slot at least as long as its overhead,
// and the slots fitting within the period. Every check is written to
// fail on NaN, and the fit check bounds the slots and overheads by the
// finite period.
func (c Config) Validate() error {
	if !(c.P > 0) || math.IsInf(c.P, 0) {
		return fmt.Errorf("core: period P = %g must be positive and finite", c.P)
	}
	for _, m := range task.Modes() {
		if !(c.O.Of(m) >= 0) {
			return fmt.Errorf("core: overhead O_%s = %g must be non-negative", m, c.O.Of(m))
		}
		if !(c.Q.Of(m) >= c.O.Of(m)) {
			return fmt.Errorf("core: slot Q_%s = %g shorter than its overhead %g", m, c.Q.Of(m), c.O.Of(m))
		}
	}
	if c.Q.Total() > c.P+SlotFitTol {
		return fmt.Errorf("core: slots total %g exceed period %g", c.Q.Total(), c.P)
	}
	return nil
}

// Problem is a design problem: a partitioned task set, the per-channel
// scheduling algorithm and the mode-switch overheads. It is the input
// to the design-space exploration (internal/region) and the design
// solvers (internal/design).
type Problem struct {
	Tasks task.Set
	Alg   analysis.Alg
	O     Overheads
}

// Validate checks the task set and overheads.
func (pr Problem) Validate() error {
	if len(pr.Tasks) == 0 {
		return task.ErrEmptySet
	}
	if err := pr.Tasks.Validate(); err != nil {
		return err
	}
	for _, m := range task.Modes() {
		if pr.O.Of(m) < 0 {
			return fmt.Errorf("core: overhead O_%s = %g negative", m, pr.O.Of(m))
		}
	}
	return nil
}

// MinQuanta returns, for each mode k, the minimum usable quantum
// max_i minQ(T_k^i, alg, P) over the channels of that mode — the
// right-hand sides of Eqs. (12), (13) and (14).
func (pr Problem) MinQuanta(p float64) (PerMode, error) {
	var out PerMode
	for _, m := range task.Modes() {
		worst := 0.0
		for _, ch := range pr.Tasks.Channels(m) {
			q, err := analysis.MinQ(ch, pr.Alg, p)
			if err != nil {
				return PerMode{}, fmt.Errorf("core: mode %s: %w", m, err)
			}
			if q > worst {
				worst = q
			}
		}
		out = out.With(m, worst)
	}
	return out, nil
}

// LHS evaluates the left-hand side of Eq. (15):
// P − Σ_k max_i minQ(T_k^i, alg, P). The period P is feasible iff
// LHS(P) ≥ O_tot.
func (pr Problem) LHS(p float64) (float64, error) {
	q, err := pr.MinQuanta(p)
	if err != nil {
		return 0, err
	}
	return p - q.Total(), nil
}

// FeasiblePeriod reports whether Eq. (15) holds at period P.
func (pr Problem) FeasiblePeriod(p float64) (bool, error) {
	lhs, err := pr.LHS(p)
	if err != nil {
		return false, err
	}
	return lhs >= pr.O.Total(), nil
}

// ConfigFor builds the configuration that allocates to every mode
// exactly its minimum quantum (plus overhead) at period P, leaving the
// remaining bandwidth as trailing slack. It errors if P is infeasible.
func (pr Problem) ConfigFor(p float64) (Config, error) {
	quanta, err := pr.MinQuanta(p)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		P: p,
		Q: PerMode{
			FT: quanta.FT + pr.O.FT,
			FS: quanta.FS + pr.O.FS,
			NF: quanta.NF + pr.O.NF,
		},
		O: pr.O,
	}
	if cfg.Q.Total() > p+SlotFitTol {
		return Config{}, fmt.Errorf("core: period %g infeasible: slots need %g", p, cfg.Q.Total())
	}
	return cfg, nil
}

// Verify independently re-checks a configuration against the original
// theorems (not the minQ inversion): every channel of every mode must be
// schedulable by the problem's algorithm on the mode's (α, Δ) supply,
// and the configuration must be structurally valid. It returns nil when
// the configuration is proven correct.
func (pr Problem) Verify(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	for _, m := range task.Modes() {
		sp := cfg.Supply(m)
		for i, ch := range pr.Tasks.Channels(m) {
			if len(ch) == 0 {
				continue
			}
			if sp.Alpha <= 0 {
				return fmt.Errorf("core: mode %s has no usable bandwidth but channel %d holds tasks %v", m, i, ch.Names())
			}
			ok, err := analysis.Feasible(ch, pr.Alg, sp)
			if err != nil {
				return fmt.Errorf("core: mode %s channel %d: %w", m, i, err)
			}
			if !ok {
				return fmt.Errorf("core: mode %s channel %d (%v) not schedulable under %s on α=%.4f Δ=%.4f",
					m, i, ch.Names(), pr.Alg, sp.Alpha, sp.Delta)
			}
		}
	}
	return nil
}

// RequiredUtilizations returns max_i U(T_k^i) per mode — the necessary
// bandwidth condition of Table 2(a).
func (pr Problem) RequiredUtilizations() PerMode {
	var out PerMode
	for _, m := range task.Modes() {
		out = out.With(m, pr.Tasks.MaxChannelUtilization(m))
	}
	return out
}

// AllocatedUtilizations returns Q̃_k/P per mode for a configuration —
// the "alloc. util." rows of Table 2.
func AllocatedUtilizations(cfg Config) PerMode {
	var out PerMode
	for _, m := range task.Modes() {
		out = out.With(m, cfg.Alpha(m))
	}
	return out
}
