package platform

import (
	"testing"

	"repro/internal/task"
)

func TestCoreChannelInverse(t *testing.T) {
	// The geometry of the paper's Figure 1: each mode's channels own
	// consecutive cores, every core belongs to exactly one of them.
	want := map[task.Mode][NumCores]int{
		task.FT: {0, 0, 0, 0},
		task.FS: {0, 0, 1, 1},
		task.NF: {0, 1, 2, 3},
	}
	for _, m := range task.Modes() {
		for c := 0; c < NumCores; c++ {
			got, err := CoreChannel(m, c)
			if err != nil || got != want[m][c] {
				t.Errorf("CoreChannel(%s, %d) = %d, %v; want %d", m, c, got, err, want[m][c])
			}
		}
	}
	if _, err := CoreChannel(task.NF, 4); err == nil {
		t.Error("core 4 should be rejected")
	}
	if _, err := CoreChannel(task.NF, -1); err == nil {
		t.Error("negative core should be rejected")
	}
}
