package core

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/task"
)

// CompiledProblem is a Problem whose per-channel demand profiles have
// been compiled once (see analysis.Compile), so that the quantities the
// design-space searches evaluate over and over — MinQuanta, LHS and
// FeasiblePeriod, tens to hundreds of times per period search and once
// per sample of a Figure 4 sweep — become tight allocation-free loops
// over precompiled (t, W(t)) pairs. The results are bit-identical to the naive methods on
// Problem, which remain as the reference oracle.
//
// A CompiledProblem is immutable after Compile and safe for concurrent
// use; region.SweepParallel shares one instance across its workers.
type CompiledProblem struct {
	pr Problem
	// profiles holds one compiled profile per channel of each mode, in
	// the same channel order Problem.MinQuanta iterates (empty channels
	// compile to profiles whose MinQ is identically zero).
	profiles [task.NumModes][]*analysis.Profile
}

// Compile compiles every channel of every mode. The P-independent work
// (hyperperiods, scheduling points, demand bounds, dominance pruning)
// happens here, exactly once per channel.
func (pr Problem) Compile() (*CompiledProblem, error) {
	cp := &CompiledProblem{pr: Problem{
		Tasks: append(task.Set(nil), pr.Tasks...),
		Alg:   pr.Alg,
		O:     pr.O,
	}}
	for _, m := range task.Modes() {
		chans := pr.Tasks.Channels(m)
		cp.profiles[m] = make([]*analysis.Profile, len(chans))
		for i, ch := range chans {
			prof, err := analysis.Compile(ch, pr.Alg)
			if err != nil {
				return nil, fmt.Errorf("core: compile mode %s channel %d: %w", m, i, err)
			}
			cp.profiles[m][i] = prof
		}
	}
	return cp, nil
}

// Problem returns the compiled problem's definition. The returned value
// shares the compiled task slice; treat it as read-only.
func (cp *CompiledProblem) Problem() Problem { return cp.pr }

// ChannelProfiles returns the compiled profile of every channel of mode
// m, in channel order. The slice is a copy (callers such as
// online.Manager maintain their own mutable cache seeded from it); the
// profiles themselves are immutable and shared.
func (cp *CompiledProblem) ChannelProfiles(m task.Mode) []*analysis.Profile {
	return append([]*analysis.Profile(nil), cp.profiles[m]...)
}

// MinQuanta is Problem.MinQuanta served from the compiled profiles:
// for each mode k, max_i minQ(T_k^i, alg, P) — the right-hand sides of
// Eqs. (12), (13) and (14). It allocates nothing.
func (cp *CompiledProblem) MinQuanta(p float64) PerMode {
	var out PerMode
	for _, m := range task.Modes() {
		worst := 0.0
		for _, prof := range cp.profiles[m] {
			if q := prof.MinQ(p); q > worst {
				worst = q
			}
		}
		out = out.With(m, worst)
	}
	return out
}

// LHS evaluates the left-hand side of Eq. (15) from the compiled
// profiles: P − Σ_k max_i minQ(T_k^i, alg, P). p must be positive.
func (cp *CompiledProblem) LHS(p float64) float64 {
	q := cp.MinQuanta(p)
	return p - q.Total()
}

// FeasiblePeriod reports whether Eq. (15) holds at period P.
func (cp *CompiledProblem) FeasiblePeriod(p float64) bool {
	return cp.LHS(p) >= cp.pr.O.Total()
}

// ConfigFor builds the configuration that allocates to every mode
// exactly its minimum quantum (plus overhead) at period P, leaving the
// remaining bandwidth as trailing slack. It errors if P is infeasible.
// It is Problem.ConfigFor served from the compiled profiles.
func (cp *CompiledProblem) ConfigFor(p float64) (Config, error) {
	if !(p > 0) || math.IsInf(p, 0) {
		return Config{}, fmt.Errorf("core: period P = %g must be positive and finite", p)
	}
	quanta := cp.MinQuanta(p)
	cfg := Config{
		P: p,
		Q: PerMode{
			FT: quanta.FT + cp.pr.O.FT,
			FS: quanta.FS + cp.pr.O.FS,
			NF: quanta.NF + cp.pr.O.NF,
		},
		O: cp.pr.O,
	}
	if cfg.Q.Total() > p+SlotFitTol {
		return Config{}, fmt.Errorf("core: period %g infeasible: slots need %g", p, cfg.Q.Total())
	}
	return cfg, nil
}

// WithTasks returns a compiled problem for the problem's task set plus
// every task in add (normalised, in order). It answers "what if these
// tasks joined" without recompiling anything: the batch is grouped by
// (mode, channel) and each touched channel's profile is patched once
// with analysis.Profile.WithTasks — one stream splice, one demand-row
// patch and one prune per channel, on a clone of the receiver's
// profile — while untouched channels share their profiles with the
// receiver. The whole batch is validated up front
// (names present, unique within the batch, absent from the problem), so
// the result is all-or-nothing; the receiver is never modified, so
// rejected what-ifs are free to discard.
func (cp *CompiledProblem) WithTasks(add []task.Task) (*CompiledProblem, error) {
	if len(add) == 0 {
		return cp, nil
	}
	norm := make(task.Set, len(add))
	seen := make(map[string]bool, len(add))
	for i, t := range add {
		t = t.Normalized()
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("core: WithTasks: %w", err)
		}
		if t.Name == "" {
			return nil, fmt.Errorf("core: WithTasks: task must have a name (WithoutTasks removes by name)")
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("core: WithTasks: task %q listed twice in the batch", t.Name)
		}
		seen[t.Name] = true
		if _, exists := cp.pr.Tasks.Find(t.Name); exists {
			return nil, fmt.Errorf("core: WithTasks: task %q already present", t.Name)
		}
		norm[i] = t
	}
	next := cp.shallowClone()
	next.pr.Tasks = append(next.pr.Tasks, norm...)
	for _, m := range task.Modes() {
		for ch := range next.profiles[m] {
			group := norm.ByChannel(m, ch)
			if len(group) == 0 {
				continue
			}
			prof, err := next.profiles[m][ch].WithTasks(group)
			if err != nil {
				return nil, fmt.Errorf("core: WithTasks: mode %s channel %d: %w", m, ch, err)
			}
			next.profiles[m][ch] = prof
		}
	}
	return next, nil
}

// WithoutTasks returns a compiled problem for the problem's task set
// minus the named tasks, patching each touched channel's profile once
// for its whole departing group. Every name must be present and listed
// once; the receiver is unchanged.
func (cp *CompiledProblem) WithoutTasks(names []string) (*CompiledProblem, error) {
	if len(names) == 0 {
		return cp, nil
	}
	gone := make(map[string]bool, len(names))
	victims := make(task.Set, 0, len(names))
	for _, name := range names {
		if name == "" {
			return nil, fmt.Errorf("core: WithoutTasks: empty task name")
		}
		if gone[name] {
			return nil, fmt.Errorf("core: WithoutTasks: task %q listed twice in the batch", name)
		}
		t, ok := cp.pr.Tasks.Find(name)
		if !ok {
			return nil, fmt.Errorf("core: WithoutTasks: no task %q", name)
		}
		gone[name] = true
		victims = append(victims, t)
	}
	next := cp.shallowClone()
	surv := next.pr.Tasks[:0]
	for _, t := range next.pr.Tasks {
		if !gone[t.Name] {
			surv = append(surv, t)
		}
	}
	next.pr.Tasks = surv
	for _, m := range task.Modes() {
		for ch := range next.profiles[m] {
			group := victims.ByChannel(m, ch)
			if len(group) == 0 {
				continue
			}
			prof, err := next.profiles[m][ch].WithoutTasks(group)
			if err != nil {
				return nil, fmt.Errorf("core: WithoutTasks: mode %s channel %d: %w", m, ch, err)
			}
			next.profiles[m][ch] = prof
		}
	}
	return next, nil
}

// shallowClone copies the task slice and the per-mode profile slices;
// the profiles themselves are immutable and shared.
func (cp *CompiledProblem) shallowClone() *CompiledProblem {
	next := &CompiledProblem{pr: Problem{
		Tasks: append(task.Set(nil), cp.pr.Tasks...),
		Alg:   cp.pr.Alg,
		O:     cp.pr.O,
	}}
	for _, m := range task.Modes() {
		next.profiles[m] = append([]*analysis.Profile(nil), cp.profiles[m]...)
	}
	return next
}
