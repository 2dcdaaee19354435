// Package envelope prunes a scheduling-point set to the points that can
// decide the analysis layer's maximum (or minimum) over it.
//
// # The dominance argument
//
// A scheduling point is a pair (t, W(t)). For a fixed point, the
// quantum requirement Q(P) = qNeeded(t, P, W) is a curve in the period
// P, and two such curves cross at most once on P > 0: subtracting
// their defining quadratics Q² + (t−P)Q − PW = 0 gives
// (t_i−t_j)·Q = P·(W_i−W_j), a ray through the origin whose
// intersection with either quadratic has at most one positive root.
// The curves' order at the two extremes is closed form —
//
//	P → 0⁺: qNeeded(t, P, W) ≈ P·W/t      (ranked by rank0  = W/t)
//	P → ∞ : qNeeded(t, P, W) → P − t + W   (ranked by rankInf = W−t)
//
// — so a point that ranks at least as high as another at both
// extremes dominates it for every P > 0: the dominated point can never
// decide a max (or, with both rankings negated, a min) over the set,
// and pruning it leaves every MinQ result bit-identical. Dominance is
// only applied with the relative margin PruneMargin on both rankings,
// far above float64 rounding noise, so razor-edge points are kept.
//
// # The canonical predicate
//
// Prune sorts the points by packed rank keys — the order-preserving
// bit transform of rank0, inverted for descending order, with the
// point's index in the low bits — and drops point i iff the maximum
// rankInf over the whole prefix of points whose truncated key is at
// most trunc(pack(rank0_i + margin_i)) reaches rankInf_i + margin_i.
// Truncation widens the fold by at most one key granule (2¹⁶ ulps,
// ~1.5e-11 relative), ~70× inside PruneMargin, so every folded point
// is still a genuine dominator at both extremes and pruning stays
// sound. A set longer than 2¹⁶ points does not fit the index bits and
// is ordered by a comparator instead.
package envelope

import (
	"math"
	"slices"
)

// PruneMargin is the relative margin required on both dominance
// rankings before a point is discarded. It is far above float64
// rounding noise (~1e-16) yet small enough that essentially every
// off-envelope point is still pruned.
const PruneMargin = 1e-9

const (
	// slotBits is the index width of packed rank keys.
	slotBits = 16
	// maxSlots bounds the packed-key path; longer sets take the
	// comparator path.
	maxSlots = 1 << slotBits
	slotMask = maxSlots - 1
)

// Pair is one scheduling point: the time T and the demand (or request
// bound) W at T.
type Pair struct {
	T, W float64
}

// margin is the relative dominance margin at ranking value v.
func margin(v float64) float64 { return PruneMargin * (1 + math.Abs(v)) }

// packRank is the order-preserving float64 → uint64 transform,
// inverted for descending order, with the low index bits cleared.
func packRank(v float64) uint64 {
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return ^b &^ slotMask
}

// thrKey is the truncated fold threshold of a point with ranking r0:
// every key at or below it belongs to a strict dominator at P → 0⁺.
func thrKey(r0 float64) uint64 {
	return packRank(r0+margin(r0)) | slotMask
}

// walk runs the canonical dominance walk over keys (sorted ascending):
// it sets drop[id] for every key's id (the low slotBits of the key) by
// the canonical predicate. r0, inf and drop are indexed by id.
func walk(keys []uint64, r0, inf []float64, drop []bool) {
	best := math.Inf(-1)
	lead := 0
	for j, key := range keys {
		s := key & slotMask
		thr := thrKey(r0[s])
		for lead < j && keys[lead] <= thr {
			if v := inf[keys[lead]&slotMask]; v > best {
				best = v
			}
			lead++
		}
		drop[s] = best >= inf[s]+margin(inf[s])
	}
}

// Prune removes the points that are dominated for every P > 0 (see
// the package comment). With min = false it keeps the candidates for
// the maximum over the set (EDF); with min = true, the candidates for
// the minimum (FP's inner search). all must be ascending in T; the
// retained points are returned ascending in T, filtered in place of
// all's backing.
func Prune(all []Pair, min bool) []Pair {
	n := len(all)
	if n <= 1 {
		return all
	}
	sign := 1.0
	if min {
		sign = -1
	}
	rank0 := make([]float64, 2*n)
	rankInf := rank0[n:]
	rank0 = rank0[:n:n]
	for i, pr := range all {
		rank0[i] = sign * pr.W / pr.T
		rankInf[i] = sign * (pr.W - pr.T)
	}
	drop := make([]bool, n)
	if n <= maxSlots {
		keys := make([]uint64, n)
		for i := range rank0 {
			keys[i] = packRank(rank0[i]) | uint64(i)
		}
		slices.Sort(keys)
		walk(keys, rank0, rankInf, drop)
	} else {
		// Comparator fallback: too many points for the packed slot bits.
		order := make([]uint64, n)
		for i := range order {
			order[i] = uint64(i)
		}
		slices.SortFunc(order, func(a, b uint64) int {
			switch {
			case rank0[a] > rank0[b]:
				return -1
			case rank0[a] < rank0[b]:
				return 1
			}
			return int(a) - int(b)
		})
		best := math.Inf(-1)
		lead := 0
		for j, oi := range order {
			thr := rank0[oi] + margin(rank0[oi])
			for lead < j && rank0[order[lead]] >= thr {
				if v := rankInf[order[lead]]; v > best {
					best = v
				}
				lead++
			}
			drop[oi] = best >= rankInf[oi]+margin(rankInf[oi])
		}
	}
	kept := all[:0]
	for i, pr := range all {
		if !drop[i] {
			kept = append(kept, pr)
		}
	}
	return kept
}
