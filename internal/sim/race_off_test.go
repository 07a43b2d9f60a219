//go:build !race

package sim_test

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
