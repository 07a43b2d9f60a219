package mc_test

import (
	"strings"
	"testing"
	"time"

	"teapot/internal/mc"
)

// TestProgressWriterRateLimit drives the plain-writer path with a fake
// clock: the first snapshot always prints, snapshots inside the interval
// are suppressed, and the cadence recovers once the clock advances.
func TestProgressWriterRateLimit(t *testing.T) {
	var b strings.Builder
	now := time.Unix(0, 0)
	pw := &mc.ProgressWriter{
		W:        &b,
		Interval: 100 * time.Millisecond,
		Now:      func() time.Time { return now },
	}
	snap := func(depth int) mc.ProgressInfo {
		return mc.ProgressInfo{Depth: depth, Frontier: 10 * depth, States: 100 * depth,
			Transitions: int64(300 * depth), Elapsed: time.Second,
			VisitedBytes: 2048}
	}
	pw.Report(snap(0)) // first line always prints
	pw.Report(snap(1)) // same instant: suppressed
	now = now.Add(50 * time.Millisecond)
	pw.Report(snap(2)) // inside the interval: suppressed
	now = now.Add(60 * time.Millisecond)
	pw.Report(snap(3)) // 110ms since last line: prints
	if pw.Lines() != 2 {
		t.Fatalf("Lines() = %d, want 2\n%s", pw.Lines(), b.String())
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", len(lines), b.String())
	}
	if want := "mc: depth 0  frontier 0  states 0 (2.0 KiB)  0 st/s  dedup 0.00"; lines[0] != want {
		t.Errorf("line 0 = %q, want %q", lines[0], want)
	}
	if want := "mc: depth 3  frontier 30  states 300 (2.0 KiB)  300 st/s  dedup 3.00"; lines[1] != want {
		t.Errorf("line 1 = %q, want %q", lines[1], want)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.0 KiB",
		5 << 20: "5.0 MiB",
		3 << 30: "3.0 GiB",
		1536:    "1.5 KiB",
	}
	for n, want := range cases {
		if got := mc.FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestProgressSnapshotInvariants checks the per-snapshot bookkeeping on a
// real run: states/transitions/bytes are nondecreasing across layers,
// and frontier matches the next layer's growth.
func TestProgressSnapshotInvariants(t *testing.T) {
	cfg := stacheConfig(t, 2, 1, 1)
	var snaps []mc.ProgressInfo
	cfg.Progress = func(p mc.ProgressInfo) { snaps = append(snaps, p) }
	res, err := mc.Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation: %s", res.Violation)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	prev := mc.ProgressInfo{States: 1} // the root is committed before depth 0
	peak := 1
	for i, p := range snaps {
		if p.States < prev.States || p.Transitions < prev.Transitions ||
			p.VisitedBytes < prev.VisitedBytes {
			t.Errorf("snapshot %d went backwards: %+v after %+v", i, p, prev)
		}
		if p.States != prev.States+p.Frontier {
			t.Errorf("snapshot %d: states %d != previous %d + frontier %d",
				i, p.States, prev.States, p.Frontier)
		}
		if p.Frontier > peak {
			peak = p.Frontier
		}
		prev = p
	}
	if res.PeakFrontier != peak {
		t.Errorf("PeakFrontier = %d, snapshots say %d", res.PeakFrontier, peak)
	}
	if last := snaps[len(snaps)-1]; last.Frontier != 0 {
		t.Errorf("final snapshot frontier = %d, want 0 (search exhausted)", last.Frontier)
	}
	if res.VisitedBytes != snaps[len(snaps)-1].VisitedBytes {
		t.Errorf("Result.VisitedBytes %d != final snapshot %d",
			res.VisitedBytes, snaps[len(snaps)-1].VisitedBytes)
	}
}
