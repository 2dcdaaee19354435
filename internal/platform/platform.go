// Package platform models the paper's 4-core lock-step hardware
// (Section 2.4, Figure 1): four identical CPUs behind a checker that
// compares their outputs, gates the bus, and reconfigures the coupling
// on-line into one of three arrangements:
//
//   - FT: all four cores in redundant lock-step — one channel whose
//     output is decided by majority vote, so a single faulty core is
//     out-voted and masked;
//   - FS: two pairs in lock-step — two channels; any disagreement
//     within a pair blocks the channel's bus access (fail silence);
//   - NF: four independent cores — four channels, no comparison.
//
// The package provides the static core↔channel geometry. The checker's
// verdicts and the dynamic behaviour (when switches happen, what jobs
// are affected) live in internal/sim: accountFaults classifies each
// fault and serviceFor blocks a fail-silent channel while it lasts.
package platform

import (
	"fmt"

	"repro/internal/task"
)

// NumCores is the number of CPUs on the chip.
const NumCores = 4

// CoreChannel returns the channel of mode m that core belongs to:
//
//	FT: channel 0 = {0, 1, 2, 3}
//	FS: channel 0 = {0, 1}, channel 1 = {2, 3}
//	NF: channel i = {i}
func CoreChannel(m task.Mode, core int) (int, error) {
	if core < 0 || core >= NumCores {
		return 0, fmt.Errorf("platform: core %d out of range [0, %d)", core, NumCores)
	}
	return core / m.CoresPerChannel(), nil
}
