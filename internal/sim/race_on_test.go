//go:build race

package sim_test

// raceEnabled reports whether the race detector instruments this
// build; alloc-count assertions are skipped under it because the
// instrumentation itself allocates.
const raceEnabled = true
