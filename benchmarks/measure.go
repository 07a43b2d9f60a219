package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is what one pass cost.
type sample struct {
	wall    float64 // seconds
	cpu     float64 // process user+sys seconds: shows GC and checker workers that wall-clock hides
	mallocs float64 // heap objects allocated
	bytes   float64 // heap bytes allocated
}

// measure runs one pass. The collection beforehand starts every pass from
// the same heap, so a pass pays for its own garbage and not its
// predecessor's.
func measure(pass func()) sample {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	pass()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	return sample{
		wall:    wall,
		cpu:     cpu,
		mallocs: float64(after.Mallocs - before.Mallocs),
		bytes:   float64(after.TotalAlloc - before.TotalAlloc),
	}
}

func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func walls(samples []sample) []float64 {
	return column(samples, func(s sample) float64 { return s.wall })
}

func cpus(samples []sample) []float64 {
	return column(samples, func(s sample) float64 { return s.cpu })
}

func mallocs(samples []sample) []float64 {
	return column(samples, func(s sample) float64 { return s.mallocs })
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS starts a new resident-set high-water mark, so that each pass
// has a peak of its own and the run can report their median: one mark for
// the whole process is the maximum over every pass and grows with their
// number. Where the kernel refuses, the mark stays the process's and the
// median is taken over that.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // a refusal is handled as described above
}

// peakRSSMB reads the resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// fingerprint says where and how a run was made. -compare refuses two
// results whose GOMAXPROCS, seed, run length or scale differ: states/sec
// at one processor diffed against two is how BENCH_mc.json went wrong.
type fingerprint struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Small      bool    `json:"small,omitempty"`
}

func newFingerprint(commit string, e env, seconds float64) fingerprint {
	return fingerprint{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit, Seed: e.seed, Seconds: seconds, Small: e.small,
	}
}
