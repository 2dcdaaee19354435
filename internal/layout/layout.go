// Package layout builds concrete period layouts in which different
// modes recur a different number of times per period — the general form
// of the paper's Section 5 extension ("the same fault-tolerance service
// during more than one time quantum per period").
//
// A uniform split is Counts{k, k, k}: every mode k times, which is
// equivalent to shrinking the period to P/k (this package's
// TestUniformSplitEquivalentToShorterPeriod checks that Solve returns
// k·MinQExact(P/k) per mode on the paper problem). Non-uniform
// counts are strictly more expressive: a mode with tight deadlines
// (e.g. FS holding a D = 4 task) can recur twice per period while FT,
// whose deadlines are long, pays its switch overhead only once. No
// single common period can express that trade-off.
//
// The layout is constructed deterministically: the period is divided
// into lcm(counts) frames; mode m occupies a sub-slot in every
// (lcm/k_m)-th frame, and within each frame the active sub-slots are
// packed back-to-back in FT, FS, NF order. The exact supply of each
// mode is then computed from the as-built offsets with supply.Pattern —
// no even-spacing idealisation.
package layout

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/supply"
	"repro/internal/task"
	"repro/internal/timeu"
)

// Counts is the number of sub-slots per period for each mode. Zero is
// promoted to 1 by Normalize.
type Counts struct {
	FT, FS, NF int
}

// Normalize promotes zero counts to 1.
func (c Counts) Normalize() Counts {
	if c.FT == 0 {
		c.FT = 1
	}
	if c.FS == 0 {
		c.FS = 1
	}
	if c.NF == 0 {
		c.NF = 1
	}
	return c
}

// Of returns the count for mode m.
func (c Counts) Of(m task.Mode) int {
	switch m {
	case task.FT:
		return c.FT
	case task.FS:
		return c.FS
	case task.NF:
		return c.NF
	}
	return 0
}

// Validate checks positivity and a sane bound.
func (c Counts) Validate() error {
	for _, m := range task.Modes() {
		k := c.Of(m)
		if k < 1 {
			return fmt.Errorf("layout: count for %s is %d, must be ≥ 1", m, k)
		}
		if k > 16 {
			return fmt.Errorf("layout: count for %s is %d, beyond the supported 16", m, k)
		}
	}
	return nil
}

// frames returns lcm(counts).
func (c Counts) frames() (int, error) {
	l := int64(1)
	for _, k := range []int{c.FT, c.FS, c.NF} {
		var err error
		if l, err = timeu.LCM(l, int64(k)); err != nil {
			return 0, fmt.Errorf("layout: frames of counts %+v: %w", c, err)
		}
	}
	return int(l), nil
}

// Layout is an as-built period layout: explicit sub-slot intervals per
// mode within one period. Quanta are the usable per-period totals Q̃_m;
// each occurrence of mode m additionally pays the overhead O_m at its
// start.
type Layout struct {
	P        float64
	Counts   Counts
	Quanta   core.PerMode
	O        core.Overheads
	Patterns map[task.Mode]supply.Pattern // usable service per mode
	// Consumed is the total time per period claimed by sub-slots and
	// overheads; Slack = P − Consumed.
	Consumed float64
}

// Slack returns the unallocated time per period.
func (l Layout) Slack() float64 { return l.P - l.Consumed }

// Build packs the sub-slots into the period and computes the exact
// per-mode supply patterns. It fails when the pieces do not fit.
func Build(p float64, counts Counts, quanta core.PerMode, o core.Overheads) (Layout, error) {
	counts = counts.Normalize()
	if err := counts.Validate(); err != nil {
		return Layout{}, err
	}
	if !(p > 0) || math.IsInf(p, 0) {
		return Layout{}, fmt.Errorf("layout: period P = %g must be positive and finite", p)
	}
	for _, m := range task.Modes() {
		if quanta.Of(m) < 0 || o.Of(m) < 0 {
			return Layout{}, fmt.Errorf("layout: negative quantum or overhead for %s", m)
		}
	}
	frames, err := counts.frames()
	if err != nil {
		return Layout{}, err
	}
	frameLen := p / float64(frames)
	ivs := map[task.Mode][]supply.Interval{}
	consumed := 0.0
	// A single cursor walks the period. Each frame's sub-slots start at
	// the frame's nominal boundary when there is room, and drift right
	// when an earlier frame overflowed (a count-1 mode's whole quantum
	// may exceed one frame). The drift is fine: the supply analysis uses
	// the as-built offsets, not the even-spacing ideal.
	cursor := 0.0
	for f := 0; f < frames; f++ {
		if nominal := float64(f) * frameLen; cursor < nominal {
			cursor = nominal
		}
		for _, m := range task.Modes() {
			k := counts.Of(m)
			if f%(frames/k) != 0 {
				continue // mode m does not recur in this frame
			}
			need := o.Of(m) + quanta.Of(m)/float64(k)
			if cursor+need > p+1e-12 {
				return Layout{}, fmt.Errorf("layout: period overflows at frame %d: %s needs %.4f but only %.4f remains",
					f, m, need, p-cursor)
			}
			usableStart := cursor + o.Of(m)
			usableEnd := cursor + need
			if usableEnd > usableStart {
				ivs[m] = append(ivs[m], supply.Interval{Start: usableStart, End: math.Min(usableEnd, p)})
			}
			cursor += need
			consumed += need
		}
	}
	patterns := make(map[task.Mode]supply.Pattern, task.NumModes)
	for _, m := range task.Modes() {
		pat, err := supply.NewPattern(p, ivs[m])
		if err != nil {
			return Layout{}, fmt.Errorf("layout: mode %s pattern: %w", m, err)
		}
		patterns[m] = pat
	}
	return Layout{
		P: p, Counts: counts, Quanta: quanta, O: o,
		Patterns: patterns, Consumed: consumed,
	}, nil
}

// Windows exports the as-built usable and overhead intervals per mode
// as [start, end) float offsets within one period — the form the
// simulator's NewWindows entry point accepts. Each usable sub-slot is
// preceded by its mode's switch overhead.
func (l Layout) Windows() (usable, overhead map[task.Mode][][2]float64) {
	usable = make(map[task.Mode][][2]float64, task.NumModes)
	overhead = make(map[task.Mode][][2]float64, task.NumModes)
	for _, m := range task.Modes() {
		o := l.O.Of(m)
		for _, iv := range l.Patterns[m].Intervals {
			usable[m] = append(usable[m], [2]float64{iv.Start, iv.End})
			if o > 0 {
				overhead[m] = append(overhead[m], [2]float64{iv.Start - o, iv.Start})
			}
		}
	}
	return usable, overhead
}

// Verify checks every channel of every mode against the as-built exact
// supply of its mode.
func Verify(l Layout, tasks task.Set, alg analysis.Alg) error {
	for _, m := range task.Modes() {
		pat := l.Patterns[m]
		for i, ch := range tasks.Channels(m) {
			if len(ch) == 0 {
				continue
			}
			if pat.Total() == 0 {
				return fmt.Errorf("layout: mode %s has no service but channel %d holds tasks", m, i)
			}
			ok, err := supply.FeasibleExact(ch, alg, pat)
			if err != nil {
				return fmt.Errorf("layout: mode %s channel %d: %w", m, i, err)
			}
			if !ok {
				return fmt.Errorf("layout: mode %s channel %d (%v) infeasible on the as-built supply", m, i, ch.Names())
			}
		}
	}
	return nil
}

// quantaIterations bounds Solve's inflation loop.
const quantaIterations = 64

// Solve sizes the quanta for a layout at a fixed period: it starts each
// mode from its idealised minimum and inflates the quanta of failing
// modes until the as-built layout verifies, or reports infeasibility.
// The ideal spaces mode m's k_m sub-slots evenly, which is the pattern
// of one slot per period P/k_m, so the start quantum is the largest
// k_m·supply.MinQExact(P/k_m) over the mode's channels. Equal counts
// {k, k, k}, the uniform split, lay out the same k frames of P/k, which
// is that ideal. With other counts the as-built offsets can be slightly
// worse — mode m's sub-slot drifts within its frame as other modes'
// sub-slots come and go — which is why verification and inflation are
// needed.
func Solve(pr core.Problem, p float64, counts Counts) (Layout, error) {
	if err := pr.Validate(); err != nil {
		return Layout{}, err
	}
	counts = counts.Normalize()
	if err := counts.Validate(); err != nil {
		return Layout{}, err
	}
	if !(p > 0) || math.IsInf(p, 0) {
		return Layout{}, fmt.Errorf("layout: period P = %g must be positive and finite", p)
	}
	var quanta core.PerMode
	for _, m := range task.Modes() {
		k := float64(counts.Of(m))
		worst := 0.0
		for _, ch := range pr.Tasks.Channels(m) {
			q, ok, err := supply.MinQExact(ch, pr.Alg, p/k)
			if err != nil {
				return Layout{}, fmt.Errorf("layout: mode %s: %w", m, err)
			}
			if !ok {
				return Layout{}, fmt.Errorf("layout: mode %s infeasible at P=%g with %d sub-slots", m, p, counts.Of(m))
			}
			worst = max(worst, k*q)
		}
		quanta = quanta.With(m, worst)
	}
	step := p / 256
	for iter := 0; iter < quantaIterations; iter++ {
		l, err := Build(p, counts, quanta, pr.O)
		if err != nil {
			return Layout{}, fmt.Errorf("layout: P=%g does not fit: %w", p, err)
		}
		failed := false
		for _, m := range task.Modes() {
			pat := l.Patterns[m]
			for _, ch := range pr.Tasks.Channels(m) {
				if len(ch) == 0 {
					continue
				}
				ok, err := supply.FeasibleExact(ch, pr.Alg, pat)
				if err != nil {
					return Layout{}, err
				}
				if !ok {
					quanta = quanta.With(m, quanta.Of(m)+step)
					failed = true
					break
				}
			}
		}
		if !failed {
			return l, nil
		}
	}
	return Layout{}, fmt.Errorf("layout: quanta did not converge at P=%g (counts %+v)", p, counts)
}
