//go:build race

package mc_test

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true
