//go:build race

package litmus

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true
