package envelope

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// qNeeded mirrors analysis.qNeeded: the positive root of
// Q² + (t−P)Q − PW = 0, in the cancellation-safe form. The envelope's
// whole contract is that pruning never changes a max (or min) of this
// function over the point set, so the tests evaluate it directly.
func qNeeded(t, p, w float64) float64 {
	if w <= 0 {
		return 0
	}
	x := t - p
	disc := math.Sqrt(x*x + 4*p*w)
	if x >= 0 {
		return 2 * p * w / (x + disc)
	}
	return (disc - x) / 2
}

// naiveDropped evaluates the canonical dominance predicate by brute
// force — no sorting, no prefix maxima — as an independent oracle for
// Prune.
func naiveDropped(pairs []Pair, min bool) []bool {
	sign := 1.0
	if min {
		sign = -1
	}
	n := len(pairs)
	r0 := make([]float64, n)
	inf := make([]float64, n)
	for i, pr := range pairs {
		r0[i] = sign * pr.W / pr.T
		inf[i] = sign * (pr.W - pr.T)
	}
	drop := make([]bool, n)
	if n <= 1 {
		return drop
	}
	for i := range pairs {
		thr := packRank(r0[i] + margin(r0[i]))
		best := math.Inf(-1)
		for j := range pairs {
			if packRank(r0[j]) <= thr && inf[j] > best {
				best = inf[j]
			}
		}
		drop[i] = best >= inf[i]+margin(inf[i])
	}
	return drop
}

func naiveKept(pairs []Pair, min bool) []Pair {
	drop := naiveDropped(pairs, min)
	kept := make([]Pair, 0, len(pairs))
	for i, pr := range pairs {
		if !drop[i] {
			kept = append(kept, pr)
		}
	}
	return kept
}

func samePairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].T) != math.Float64bits(b[i].T) || math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
			return false
		}
	}
	return true
}

// randomPairs draws a point set over a small time grid so rank ties
// and near-ties (within PruneMargin) occur organically, and injects a
// few deliberate razor-edge pairs.
func randomPairs(r *rand.Rand, n int) []Pair {
	seen := map[float64]bool{}
	var pairs []Pair
	for len(pairs) < n {
		t := 1 + float64(r.Intn(8*n))/4
		if seen[t] {
			continue
		}
		seen[t] = true
		w := t * (0.1 + 1.8*r.Float64())
		switch r.Intn(8) {
		case 0:
			// Exact rank0 tie with an earlier point.
			if len(pairs) > 0 {
				o := pairs[r.Intn(len(pairs))]
				w = o.W / o.T * t
			}
		case 1:
			// Within-margin near-tie: perturb by a fraction of PruneMargin.
			if len(pairs) > 0 {
				o := pairs[r.Intn(len(pairs))]
				w = o.W / o.T * (1 + (r.Float64()-0.5)*PruneMargin) * t
			}
		}
		pairs = append(pairs, Pair{T: t, W: w})
	}
	slices.SortFunc(pairs, func(a, b Pair) int {
		switch {
		case a.T < b.T:
			return -1
		case a.T > b.T:
			return 1
		}
		return 0
	})
	return pairs
}

// checkSound verifies the pruning contract: for random periods the
// max (and, in min mode, the min) of qNeeded over the kept points is
// bit-identical to the same extremum over all points.
func checkSound(t *testing.T, r *rand.Rand, all, kept []Pair, min bool) {
	t.Helper()
	for trial := 0; trial < 12; trial++ {
		p := math.Ldexp(1+r.Float64(), r.Intn(16)-8)
		extremum := func(pts []Pair) float64 {
			if min {
				best := math.Inf(1)
				for _, pr := range pts {
					if v := qNeeded(pr.T, p, pr.W); v < best {
						best = v
					}
				}
				return best
			}
			best := 0.0
			for _, pr := range pts {
				if v := qNeeded(pr.T, p, pr.W); v > best {
					best = v
				}
			}
			return best
		}
		if got, want := extremum(kept), extremum(all); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pruned extremum %v != full extremum %v at p=%v (min=%v, %d/%d kept)",
				got, want, p, min, len(kept), len(all))
		}
	}
}

func TestPruneMatchesNaiveOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(60)
		pairs := randomPairs(r, n)
		for _, min := range []bool{false, true} {
			want := naiveKept(pairs, min)
			got := Prune(slices.Clone(pairs), min)
			if !samePairs(got, want) {
				t.Fatalf("trial %d min=%v: Prune kept %d pairs, naive oracle %d", trial, min, len(got), len(want))
			}
			checkSound(t, r, pairs, got, min)
		}
	}
}

func TestPruneActuallyPrunes(t *testing.T) {
	// A harmonic demand staircase has many interior points strictly under
	// the envelope; pruning must remove a decent share of them.
	var pairs []Pair
	for i := 1; i <= 256; i++ {
		t := float64(i)
		pairs = append(pairs, Pair{T: t, W: 0.4*t + 3*math.Sin(t/7)*math.Sin(t/7)})
	}
	kept := Prune(slices.Clone(pairs), false)
	if len(kept) >= len(pairs)/2 {
		t.Fatalf("envelope kept %d of %d pairs: pruning is not biting", len(kept), len(pairs))
	}
}

// TestPruneBigInput prunes one point more than the packed keys can
// index, so Prune takes its comparator path: the result must still be
// sound and must still prune.
func TestPruneBigInput(t *testing.T) {
	n := maxSlots + 1
	r := rand.New(rand.NewSource(3))
	all := make([]Pair, n)
	for i := range all {
		tv := float64(i + 1)
		all[i] = Pair{T: tv, W: tv * (0.2 + 1.5*r.Float64())}
	}
	for _, min := range []bool{false, true} {
		kept := Prune(slices.Clone(all), min)
		if len(kept) >= n {
			t.Fatalf("min=%v: Prune kept all %d points", min, n)
		}
		checkSound(t, r, all, kept, min)
	}
}
