//go:build race

package core_test

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true
