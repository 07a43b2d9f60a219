package mc

import (
	"fmt"
	"io"
	"time"
)

// DefaultProgressInterval is the minimum spacing between ProgressWriter
// lines unless overridden.
const DefaultProgressInterval = 500 * time.Millisecond

// ProgressWriter renders ProgressInfo snapshots as rate-limited plain-text
// lines (teapot verify -progress attaches one to stderr). The zero
// Interval means DefaultProgressInterval; Now is a test hook for the rate
// limiter's clock. Report is the Config.Progress callback.
type ProgressWriter struct {
	W        io.Writer
	Interval time.Duration
	Now      func() time.Time

	last  time.Time
	lines int
}

// Report writes one progress line unless the previous line was written
// less than Interval ago. Layers are frequent early in a search (small
// frontiers expand in microseconds), so without the limiter a run would
// emit thousands of lines before the interesting depths.
func (pw *ProgressWriter) Report(p ProgressInfo) {
	now := time.Now
	if pw.Now != nil {
		now = pw.Now
	}
	interval := pw.Interval
	if interval == 0 {
		interval = DefaultProgressInterval
	}
	t := now()
	if pw.lines > 0 && t.Sub(pw.last) < interval {
		return
	}
	pw.last = t
	pw.lines++
	fmt.Fprintf(pw.W, "mc: depth %d  frontier %d  states %d (%s)  %.0f st/s  dedup %.2f\n",
		p.Depth, p.Frontier, p.States, FormatBytes(p.VisitedBytes), p.StatesPerSec(), p.DedupRatio())
}

// Lines returns how many lines have been written (rate-limited ones
// excluded).
func (pw *ProgressWriter) Lines() int { return pw.lines }

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
