package partition

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/task"
)

// maxOptimalTasksPerMode bounds the exhaustive search; beyond it the
// channel^n enumeration is no longer tractable.
const maxOptimalTasksPerMode = 12

// AssignOptimal exhaustively minimises, mode by mode, the maximum
// per-channel utilisation subject to the admission test. It is
// exponential in the per-mode task count: the baseline the heuristics
// are measured against, over the same validated input Assign places.
func AssignOptimal(s task.Set, alg analysis.Alg) (task.Set, error) {
	if err := validateAlg(alg); err != nil {
		return nil, err
	}
	out, err := normalizedInput(s)
	if err != nil {
		return nil, err
	}
	var pos []int
	for _, m := range task.Modes() {
		pos = modePositions(pos[:0], out, m)
		if len(pos) == 0 {
			continue
		}
		if len(pos) > maxOptimalTasksPerMode {
			return nil, fmt.Errorf("partition: %d tasks in mode %s exceed the optimal-search bound %d",
				len(pos), m, maxOptimalTasksPerMode)
		}
		best, bestMax := []int(nil), math.Inf(1)
		assign := make([]int, len(pos))
		var rec func(i int)
		rec = func(i int) {
			if i == len(pos) {
				bins := make([]task.Set, m.Channels())
				for j, ch := range assign {
					bins[ch] = append(bins[ch], out[pos[j]])
				}
				worst := 0.0
				for _, b := range bins {
					if len(b) == 0 {
						continue
					}
					ok, err := analysis.Schedulable(b, alg)
					if err != nil || !ok {
						return
					}
					if u := b.Utilization(); u > worst {
						worst = u
					}
				}
				if worst < bestMax {
					bestMax = worst
					best = append([]int(nil), assign...)
				}
				return
			}
			for ch := 0; ch < m.Channels(); ch++ {
				assign[i] = ch
				rec(i + 1)
			}
		}
		rec(0)
		if best == nil {
			return nil, fmt.Errorf("%w: no admissible placement for mode %s", ErrUnplaceable, m)
		}
		for j, ch := range best {
			out[pos[j]].Channel = ch
		}
	}
	return out, nil
}

// scanAssign and scanPlace are the packing loops that ordered probing
// replaced, kept as their reference: best- and worst-fit probe every
// channel of the mode and then pick, and channels are written back
// through the task names, so inputs must be uniquely named. Assign must
// return the same channels and the same errors.

func scanAssign(s task.Set, opts Options) (task.Set, error) {
	if err := validateAlg(opts.Alg); err != nil {
		return nil, err
	}
	s = s.Normalized()
	out := append(task.Set(nil), s...)
	index := make(map[string]int, len(out))
	for i, t := range out {
		index[t.Name] = i
	}
	for _, m := range task.Modes() {
		sub := s.ByMode(m)
		if len(sub) == 0 {
			continue
		}
		if opts.Decreasing {
			sub = append(task.Set(nil), sub...)
			sort.SliceStable(sub, func(i, j int) bool {
				return sub[i].Utilization() > sub[j].Utilization()
			})
		}
		bins := make([]task.Set, m.Channels())
		cursor := 0
		for _, tk := range sub {
			ch, err := scanPlace(tk, bins, opts, &cursor)
			if err != nil {
				return nil, fmt.Errorf("%w: %s in mode %s", ErrUnplaceable, tk.Name, m)
			}
			tk.Channel = ch
			bins[ch] = append(bins[ch], tk)
			out[index[tk.Name]].Channel = ch
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

func scanPlace(tk task.Task, bins []task.Set, opts Options, cursor *int) (int, error) {
	admissible := func(ch int) bool {
		trial := append(append(task.Set(nil), bins[ch]...), tk)
		ok, err := analysis.Schedulable(trial, opts.Alg)
		return err == nil && ok
	}
	n := len(bins)
	switch opts.Heuristic {
	case FirstFit:
		for ch := 0; ch < n; ch++ {
			if admissible(ch) {
				return ch, nil
			}
		}
	case NextFit:
		for k := 0; k < n; k++ {
			ch := (*cursor + k) % n
			if admissible(ch) {
				*cursor = ch
				return ch, nil
			}
		}
	case BestFit, WorstFit:
		best, bestU := -1, 0.0
		for ch := 0; ch < n; ch++ {
			if !admissible(ch) {
				continue
			}
			u := bins[ch].Utilization()
			if best == -1 ||
				(opts.Heuristic == BestFit && u > bestU) ||
				(opts.Heuristic == WorstFit && u < bestU) {
				best, bestU = ch, u
			}
		}
		if best >= 0 {
			return best, nil
		}
	default:
		return 0, fmt.Errorf("partition: unknown heuristic %d", int(opts.Heuristic))
	}
	return 0, ErrUnplaceable
}

// randomPackingSet draws 3–12 uniquely named tasks over a small grid of
// periods, deadlines and utilisations, a quarter of them copies of an
// earlier task (same mode), so bins of equal utilisation are common,
// and totals high enough that some sets are unplaceable.
func randomPackingSet(rng *rand.Rand) task.Set {
	periods := []float64{4, 5, 6, 8, 10, 12}
	s := make(task.Set, 3+rng.Intn(10))
	for i := range s {
		if i > 0 && rng.Intn(4) == 0 {
			s[i] = s[rng.Intn(i)]
		} else {
			T := periods[rng.Intn(len(periods))]
			D := T
			if rng.Intn(3) == 0 {
				D = T - float64(rng.Intn(int(T)/2))
			}
			s[i] = task.Task{C: D * float64(1+rng.Intn(6)) / 8, T: T, D: D, Mode: task.Modes()[rng.Intn(task.NumModes)]}
		}
		s[i].Name = fmt.Sprintf("t%d", i)
	}
	return s
}

// TestAssignMatchesFullScan checks ordered probing against the full
// scan: the same channels for every placed set and ErrUnplaceable for
// the same sets, over every heuristic, both task orders and all three
// algorithms.
func TestAssignMatchesFullScan(t *testing.T) {
	sets := 2000
	if testing.Short() {
		sets = 200
	}
	rng := rand.New(rand.NewSource(21))
	placed, unplaceable := 0, 0
	for trial := 0; trial < sets; trial++ {
		src := randomPackingSet(rng)
		for _, alg := range []analysis.Alg{analysis.EDF, analysis.RM, analysis.DM} {
			for _, h := range []Heuristic{FirstFit, BestFit, WorstFit, NextFit} {
				for _, dec := range []bool{false, true} {
					opts := Options{Heuristic: h, Decreasing: dec, Alg: alg}
					got, err := Assign(src, opts)
					want, wantErr := scanAssign(src, opts)
					if errors.Is(err, ErrUnplaceable) != errors.Is(wantErr, ErrUnplaceable) || (err == nil) != (wantErr == nil) {
						t.Fatalf("set %d %v %v dec=%v: error %v, full scan %v\n%v", trial, alg, h, dec, err, wantErr, src)
					}
					if err != nil {
						unplaceable++
						continue
					}
					placed++
					if !slices.Equal(got, want) {
						t.Fatalf("set %d %v %v dec=%v: channels differ from the full scan\ngot  %v\nwant %v", trial, alg, h, dec, got, want)
					}
				}
			}
		}
	}
	if placed == 0 || unplaceable == 0 {
		t.Fatalf("%d placed and %d unplaceable assignments: the sets miss a case", placed, unplaceable)
	}
}

// TestAssignUnnamedTasks is the regression test for unnamed tasks,
// which task.Set.Validate allows: their channels are written back by
// position, so an unnamed set gets the channels of the same set named,
// and every channel stays schedulable. Three tasks of utilisation 0.6
// need three NF channels.
func TestAssignUnnamedTasks(t *testing.T) {
	unnamed := make(task.Set, 3)
	for i := range unnamed {
		unnamed[i] = task.Task{C: 3, T: 5, D: 5, Mode: task.NF}
	}
	named := slices.Clone(unnamed)
	for i := range named {
		named[i].Name = fmt.Sprintf("u%d", i)
	}
	check := func(label string, got, ref task.Set, err, refErr error) {
		t.Helper()
		if err != nil || refErr != nil {
			t.Fatalf("%s: %v (named: %v)", label, err, refErr)
		}
		for i := range got {
			if got[i].Channel != ref[i].Channel {
				t.Fatalf("%s: task %d on channel %d, named set puts it on %d", label, i, got[i].Channel, ref[i].Channel)
			}
		}
		for ch, sub := range got.Channels(task.NF) {
			if ok, err := analysis.Schedulable(sub, analysis.EDF); err != nil || !ok {
				t.Fatalf("%s: NF/%d (U = %g) not schedulable", label, ch, sub.Utilization())
			}
		}
	}
	for _, alg := range []analysis.Alg{analysis.EDF, analysis.RM, analysis.DM} {
		for _, h := range []Heuristic{FirstFit, BestFit, WorstFit, NextFit} {
			for _, dec := range []bool{false, true} {
				opts := Options{Heuristic: h, Decreasing: dec, Alg: alg}
				got, err := Assign(unnamed, opts)
				ref, refErr := Assign(named, opts)
				check(fmt.Sprintf("%v %v dec=%v", alg, h, dec), got, ref, err, refErr)
			}
		}
		got, err := AssignOptimal(unnamed, alg)
		ref, refErr := AssignOptimal(named, alg)
		check(fmt.Sprintf("optimal %v", alg), got, ref, err, refErr)
	}
}
