package fuzz

// The testdata/repro regression suite: every committed schedule artifact
// must keep replaying to exactly the verdict its "expect" field pins —
// seeded-bug reproducers must still fail, fixed-bug twins must still run
// clean — and replay must be deterministic down to the byte-identical obs
// event stream. Failing entries are additionally cross-checked against
// the model checker, whose counterexample must pass mc.DiffReplay.

import (
	"path/filepath"
	"strings"
	"testing"

	"teapot/internal/mc"
	"teapot/internal/obs"
	"teapot/internal/runtime"
)

// reproDir is the committed reproducer corpus, relative to this package.
const reproDir = "../../testdata/repro"

// streamSink renders every event line the way the flight recorder would,
// so two replays can be compared byte for byte.
type streamSink struct {
	names obs.Names
	lines []string
}

func (s *streamSink) Emit(ev obs.Event) {
	s.lines = append(s.lines, obs.FormatEvent(ev, s.names))
}

func TestReproCorpusReplays(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(reproDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no committed reproducers in %s", reproDir)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			s, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if s.Expect == "" {
				t.Fatalf("%s: committed reproducers must pin a verdict in \"expect\"", path)
			}
			rep, err := ReplaySchedule(s)
			if err != nil {
				t.Fatal(err)
			}
			class := rep.class()
			if class == "" {
				class = "clean"
			}
			if class != s.Expect {
				t.Fatalf("replays as %q, expect pins %q (violation=%v runErr=%v)",
					class, s.Expect, rep.Violation, rep.RunErr)
			}

			// Replay determinism: two observed replays of the same artifact
			// must produce byte-identical event streams.
			net, err := s.NetModel()
			if err != nil {
				t.Fatal(err)
			}
			f, err := New(Config{Proto: s.Proto, Nodes: s.Nodes, Blocks: s.Blocks,
				Net: net, OpsPerNode: s.OpsPerNode})
			if err != nil {
				t.Fatal(err)
			}
			names := runtime.ObsNames(f.Spec().Proto)
			var streams [2]string
			for i := range streams {
				sink := &streamSink{names: names}
				f.ReplayObserved(s, sink)
				streams[i] = strings.Join(sink.lines, "\n")
			}
			if streams[0] != streams[1] {
				t.Fatal("two replays of the same schedule produced different event streams")
			}
			if len(streams[0]) == 0 {
				t.Fatal("replay emitted no events")
			}

			// A still-failing reproducer must agree with the model checker,
			// and the checker's counterexample must pass its differential.
			if s.Expect == "violation" {
				mcres, err := f.ConfirmMC(500_000)
				if err != nil {
					t.Fatal(err)
				}
				if mcres.Violation == nil {
					t.Fatalf("checker found no violation in %d states for a failing reproducer", mcres.States)
				}
				if err := mc.DiffReplay(f.Spec().MCConfig(), mcres.Violation.Steps); err != nil {
					t.Fatalf("differential replay of checker counterexample: %v", err)
				}
			}
		})
	}
}
