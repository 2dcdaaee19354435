package sim

import (
	"math/rand"
	"testing"

	"repro/internal/timeu"
)

// TestPeriodicLengthMatchesRepeatRange checks the closed-form window
// accounting against the materialised windows: over random per-period
// offsets and ranges, on and off period boundaries, periodicLength
// equals the summed length of repeatRange's windows, and it is positive
// exactly when some materialised window overlaps the range.
func TestPeriodicLengthMatchesRepeatRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		period := timeu.Ticks(1 + rng.Intn(50))
		var offsets []interval
		for at := timeu.Ticks(0); at < period && len(offsets) < 3; {
			from := at + timeu.Ticks(rng.Intn(int(period-at)+1))
			to := from + timeu.Ticks(rng.Intn(int(period-from)+1))
			if to > from {
				offsets = append(offsets, interval{From: from, To: to})
			}
			at = to + 1
		}
		from := timeu.Ticks(rng.Intn(200))
		to := from + timeu.Ticks(rng.Intn(200))
		var want timeu.Ticks
		windows := repeatRange(nil, offsets, period, from, to)
		for _, w := range windows {
			want += w.length()
		}
		if got := periodicLength(offsets, period, from, to); got != want {
			t.Fatalf("offsets %v period %d over [%d, %d): periodicLength %d, windows sum to %d",
				offsets, period, from, to, got, want)
		}
		a := from + timeu.Ticks(rng.Intn(int(to-from)+1))
		b := a + 1 + timeu.Ticks(rng.Intn(20))
		overlaps := false
		for _, w := range windows {
			overlaps = overlaps || w.intersects(a, b)
		}
		if got := periodicLength(offsets, period, a, min(b, to)) > 0; got != overlaps {
			t.Fatalf("offsets %v period %d over [%d, %d), fault [%d, %d): closed form says %v, windows %v",
				offsets, period, from, to, a, b, got, overlaps)
		}
	}
}
