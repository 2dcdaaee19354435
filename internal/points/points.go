// Package points computes the time-point sets over which the paper's
// schedulability conditions are checked:
//
//   - schedP_i, the Bini–Buttazzo scheduling points of a task under
//     fixed-priority scheduling (reference [10] of the paper), used by
//     Theorem 1 and Eq. (6);
//   - dlSet, the set of absolute deadlines up to the hyperperiod, used
//     by the EDF condition of Theorem 2 and Eq. (11).
//
// Both sets are built iteratively over sorted slices (no hashing, no
// recursion, no post-hoc sort), so the construction cost is linear in
// the output size and the compiled-profile layer of internal/analysis
// can rebuild them cheaply.
package points

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/task"
)

// FixedPriority returns schedP_i for a task with relative deadline d and
// the given higher-priority tasks hp (any order). It implements the
// recursive definition
//
//	P_0(t)   = {t}
//	P_j(t)   = P_{j-1}(⌊t/T_j⌋·T_j) ∪ P_{j-1}(t)
//	schedP_i = P_{i-1}(D_i)
//
// restricted to points in (0, d]. The result is sorted ascending and
// duplicate-free. schedP_i is the smallest set of points at which the
// feasibility inequality must be checked for the task to be schedulable.
//
// Rather than recursing (which visits 2^|hp| leaves and dedups through a
// map), the set is grown level by level: lifting P_j over a set S gives
// P_j(S) = P_{j-1}(S ∪ ⌊S/T_j⌋·T_j), so each level is one merge of two
// sorted slices — ⌊t/T_j⌋·T_j is monotone in t, so the floored image of
// a sorted slice is already sorted. Periods in hp must be positive (the
// task model guarantees this; see task.Task.Validate).
func FixedPriority(hp task.Set, d float64) []float64 {
	if d <= 0 {
		return nil
	}
	pts := make([]float64, 1, 8)
	pts[0] = d
	var floors, merged []float64
	for j := len(hp); j >= 1; j-- {
		period := hp[j-1].T
		floors = floors[:0]
		for _, t := range pts {
			// Pessimistic: a rounded-up quotient can put ⌊t/T⌋·T an ulp
			// above t; the clamp drops that point instead of passing d.
			if f := math.Min(math.Floor(t/period)*period, t); f > 0 {
				floors = append(floors, f)
			}
		}
		pts, merged = mergeSortedUnique(pts, floors, merged[:0]), pts
	}
	return pts
}

// mergeSortedUnique merges two sorted ascending slices into dst,
// dropping exact duplicates. dst must be empty (it is only passed in so
// the caller can recycle its backing array).
func mergeSortedUnique(a, b, dst []float64) []float64 {
	if cap(dst) < len(a)+len(b) {
		dst = make([]float64, 0, len(a)+len(b))
	}
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v float64
		switch {
		case j >= len(b) || (i < len(a) && a[i] <= b[j]):
			v = a[i]
			i++
		default:
			v = b[j]
			j++
		}
		if n := len(dst); n == 0 || dst[n-1] != v {
			dst = append(dst, v)
		}
	}
	return dst
}

// MaxStream bounds the deadlines Deadlines enumerates, counted per task
// before duplicates merge (see StreamLen): about 4 million points, 32 MB
// of float64. It is far above any stream of the paper's time scale (a
// 240-unit hyperperiod of 83 tasks has under 2000), and it turns a
// horizon that would exhaust memory into an error.
const MaxStream = 1 << 22

// Deadlines returns dlSet(T) restricted to (0, horizon]: every absolute
// deadline k·T_i + D_i (k ≥ 0) of every task, assuming the synchronous
// arrival pattern (all first jobs released at time zero). The horizon is
// normally the hyperperiod of the set. The result is sorted ascending
// and duplicate-free. A set with more than MaxStream deadlines in the
// horizon is an error, reported before anything is allocated.
func Deadlines(s task.Set, horizon float64) ([]float64, error) {
	return AppendDeadlines(nil, s, horizon)
}

// mergeCursors is how many tasks AppendDeadlines merges with its
// cursors on the stack; a larger set keeps them on the heap.
const mergeCursors = 64

// AppendDeadlines appends the points Deadlines returns to dst and
// returns the extended slice, growing dst at most once, by the count
// StreamLen bounds. A caller that recycles dst builds the stream
// without allocating for sets of up to 64 tasks. On error dst is
// returned unchanged.
//
// Each task's deadline stream is already ascending, so the set is built
// by a k-way merge of the streams instead of hashing and sorting. A task
// with a NaN or non-positive period, or a non-finite deadline, has a
// deadline stream that never advances or never enters (0, horizon];
// such tasks are rejected here (they are also rejected at task.Set
// construction by Validate, but the merge must not spin forever on
// unvalidated input).
func AppendDeadlines(dst []float64, s task.Set, horizon float64) ([]float64, error) {
	if len(s) == 0 {
		return dst, nil
	}
	for _, t := range s {
		if !(t.T > 0) {
			return dst, fmt.Errorf("points: task %s has period T = %g, not positive", t.Name, t.T)
		}
		if math.IsNaN(t.D) || math.IsInf(t.D, 0) {
			return dst, fmt.Errorf("points: task %s has non-finite deadline D = %g", t.Name, t.D)
		}
	}
	total := StreamLen(s, horizon)
	if err := CheckStreamLen(total, horizon); err != nil {
		return dst, err
	}
	// head[i] is task i's next unconsumed deadline in (0, horizon],
	// +Inf once the stream is exhausted; kidx[i] is the index of the
	// job after it.
	var headBuf [mergeCursors]float64
	var kidxBuf [mergeCursors]int
	head, kidx := headBuf[:], kidxBuf[:]
	if len(s) > mergeCursors {
		head, kidx = make([]float64, len(s)), make([]int, len(s))
	}
	head, kidx = head[:len(s)], kidx[:len(s)]
	exhausted := 0
	advance := func(i int) {
		t := s[i]
		for {
			dl := Deadline(kidx[i], t.T, t.D)
			kidx[i]++
			if dl > horizon {
				head[i] = math.Inf(1)
				exhausted++
				return
			}
			if dl > 0 {
				head[i] = dl
				return
			}
		}
	}
	for i := range s {
		advance(i)
	}
	dst = slices.Grow(dst, int(total))
	for exhausted < len(s) {
		next := math.Inf(1)
		for _, h := range head {
			if h < next {
				next = h
			}
		}
		dst = append(dst, next)
		for i, h := range head {
			if h == next {
				advance(i)
			}
		}
	}
	return dst, nil
}

// StreamLen returns how many deadlines the tasks of s have in
// (0, horizon], counted per task before duplicates merge: the count
// MaxStream bounds. It counts in float64, so that a huge horizon cannot
// overflow the count, and the count of a set is the sum of the counts
// of its parts. Periods must be positive.
func StreamLen(s task.Set, horizon float64) float64 {
	n := 0.0
	for _, t := range s {
		if t.D <= horizon {
			n += math.Floor(math.Max(0, (horizon-t.D)/t.T)) + 1
		}
	}
	return n
}

// CheckStreamLen returns an error if n deadlines up to horizon, as
// StreamLen counts them, exceed MaxStream.
func CheckStreamLen(n, horizon float64) error {
	if n > MaxStream {
		return fmt.Errorf("points: %g deadlines up to %g exceed the bound of %d", n, horizon, MaxStream)
	}
	return nil
}

// Deadline is the absolute deadline k·T + d of a task's job k, rounded
// as every generator here emits it. The explicit conversion rounds the
// product before the sum, so no platform fuses them: a caller that
// counts jobs with Deadline agrees with the generated streams bit for
// bit.
func Deadline(k int, T, d float64) float64 { return float64(float64(k)*T) + d }

// AppendTaskDeadlines appends one task's absolute deadline stream
// restricted to (0, horizon] to dst and returns the extended slice: the
// points k·T + D for k ≥ 0, ascending. It generates exactly the values
// task t contributes to Deadlines (same expression, same floating-point
// results), so the incremental profile layer of internal/analysis can
// merge or unmerge a single task's stream and stay bit-identical to a
// full Deadlines rebuild, and allocation-free callers can generate it
// into a recycled buffer. The period must be positive (callers hold
// validated tasks; a non-positive period appends nothing rather than
// spinning).
func AppendTaskDeadlines(dst []float64, t task.Task, horizon float64) []float64 {
	if t.T <= 0 {
		return dst
	}
	for k := 0; ; k++ {
		dl := Deadline(k, t.T, t.D)
		if dl > horizon {
			return dst
		}
		if dl > 0 {
			dst = append(dst, dl)
		}
	}
}
