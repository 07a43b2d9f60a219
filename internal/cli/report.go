package cli

import (
	"fmt"
	"io"
	"time"

	"teapot/internal/manifest"
	"teapot/internal/mc"
	"teapot/internal/obs"
	"teapot/internal/runtime"
)

// What verify, sim, fuzz and litmus share in writing a run manifest. The
// "tool" values are part of the manifest's versioned schema and keep the
// names the tools had as separate commands.

// newManifest fills the fields every subcommand fills the same way; the
// caller adds its own stats block.
func newManifest(tool, proto string, nodes, blocks int, net string, seed uint64,
	cov *obs.Coverage, p *runtime.Protocol) *manifest.Manifest {
	return &manifest.Manifest{
		ManifestVersion: manifest.Version,
		Tool:            tool,
		Protocol:        proto,
		Nodes:           nodes,
		Blocks:          blocks,
		Net:             net,
		Seed:            seed,
		Coverage:        cov.Report(runtime.ObsNames(p)),
	}
}

// perSec is n per second of elapsed, 0 when the clock did not advance.
func perSec(n float64, elapsed time.Duration) float64 {
	if s := elapsed.Seconds(); s > 0 {
		return n / s
	}
	return 0
}

// flightTail renders a flight recorder's events, one line each, and dumps
// them to stderr under a heading saying what run they are the tail of.
func flightTail(stderr io.Writer, of string, fr *obs.Collector, p *runtime.Protocol) []string {
	lines := fr.TailLines(0, runtime.ObsNames(p))
	fmt.Fprintf(stderr, "flight recorder (%s):\n", of)
	for _, l := range lines {
		fmt.Fprintln(stderr, "  "+l)
	}
	return lines
}

// mcStats lowers a checker result into manifest form.
func mcStats(res *mc.Result) *manifest.MCStats {
	st := &manifest.MCStats{
		States:        res.States,
		Transitions:   res.Transitions,
		MaxDepth:      res.MaxDepth,
		Workers:       res.Workers,
		ElapsedSec:    res.Elapsed.Seconds(),
		StatesPerSec:  perSec(float64(res.States), res.Elapsed),
		PeakFrontier:  res.PeakFrontier,
		Decodes:       res.Decodes,
		VisitedBytes:  res.VisitedBytes,
		SymmetryGroup: res.SymmetryGroup,
		SymmetryNote:  res.SymmetryNote,
	}
	if res.States > 0 {
		st.BytesPerState = float64(res.VisitedBytes) / float64(res.States)
		st.DedupRatio = float64(res.Transitions) / float64(res.States)
	}
	if v := res.Violation; v != nil {
		st.Violation = &manifest.Violation{Kind: v.Kind, Msg: v.Msg, Waits: v.Waits, Trace: v.Trace}
		for _, s := range v.Steps {
			st.Violation.Steps = append(st.Violation.Steps, manifest.Step(s))
		}
	}
	return st
}
