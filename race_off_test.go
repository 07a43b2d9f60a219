//go:build !race

package teapot_test

const raceEnabled = false
