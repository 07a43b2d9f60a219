// Package fuzz drives the simulator through randomized schedules and
// judges every run with the coherence oracle. Schedules are first-class
// artifacts: each nondeterministic decision the Tempest machine delegates
// (fault fate, bounded channel reordering, same-cycle ties) is recorded as
// a (step, kind, pick) triple, so any run — including a failing one — can
// be replayed bit-for-bit, shrunk by delta debugging to a minimal
// reproducer, and cross-checked against the model checker.
package fuzz

import (
	"encoding/json"
	"fmt"
	"os"

	"teapot/internal/netmodel"
	"teapot/internal/protocols"
	"teapot/internal/tempest"
)

// Decision is one recorded nondeterministic pick. Step is the global index
// of the choice point in the run (every Choose call increments it, asked
// or not recorded); Kind names the tempest.ChoiceKind; Pick is the chosen
// option. Option 0 — the benign default — is never recorded, so a schedule
// is sparse: the empty decision list is exactly the deterministic
// fault-free run.
type Decision struct {
	Step uint64 `json:"step"`
	Kind string `json:"kind"`
	Pick int    `json:"pick"`
}

// Schedule is a complete, replayable description of one fuzzed run: the
// run shape (protocol, machine size, fault model, workload) plus the
// decision list. Serialized schedules are the fuzzer's failure artifacts.
type Schedule struct {
	Proto        string     `json:"proto"`
	Nodes        int        `json:"nodes"`
	Blocks       int        `json:"blocks"`
	Net          string     `json:"net"` // netmodel flag syntax
	WorkloadSeed uint64     `json:"workload_seed"`
	OpsPerNode   int        `json:"ops_per_node"`
	RecordSeed   uint64     `json:"record_seed,omitempty"` // provenance: the recorder RNG that found it
	Decisions    []Decision `json:"decisions"`

	// Litmus names the litmus test the schedule drives (teapot litmus
	// artifacts). Litmus schedules replay through the litmus harness —
	// their workload is the test's script, not a RandomProgram — so the
	// fuzzer's own replay refuses them.
	Litmus string `json:"litmus,omitempty"`
	// Expect classifies what replaying the schedule should produce
	// ("violation", "error", "forbidden:<name>", or "clean" for regression
	// artifacts pinning a fixed bug); informational for humans, asserted by
	// the testdata/repro regression suite.
	Expect string `json:"expect,omitempty"`
	// Note is a human-readable provenance line ("found by ...", "pins the
	// PR 5 ack-counting bug", ...).
	Note string `json:"note,omitempty"`
}

// NetModel parses the schedule's fault model.
func (s *Schedule) NetModel() (netmodel.Model, error) { return netmodel.Parse(s.Net) }

func (s *Schedule) String() string {
	return fmt.Sprintf("%s %dn/%db net=%s workload=%d×%d: %d decision(s)",
		s.Proto, s.Nodes, s.Blocks, s.Net, s.WorkloadSeed, s.OpsPerNode, len(s.Decisions))
}

// Save writes the schedule as indented JSON.
func (s *Schedule) Save(path string) error {
	data, err := s.encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (s *Schedule) encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	return append(data, '\n'), err
}

// Load reads a schedule written by Save.
func Load(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(path, data)
}

// decode parses a schedule file's contents and holds them to the ranges
// teapot fuzz's flags state, so that an edited file cannot describe a run
// the command line would refuse. A litmus schedule's workload is its test's
// script: it records no ops_per_node, and one scripted node is a machine.
// Whether each decision names a choice the run really offers is not
// knowable here; Replayer.Applied reports it.
func decode(path string, data []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("fuzz: %s: %w", path, err)
	}
	refuse := func(format string, args ...any) (*Schedule, error) {
		return nil, fmt.Errorf("fuzz: %s: %s", path, fmt.Sprintf(format, args...))
	}
	minNodes, minOps := 2, 1
	if s.Litmus != "" {
		minNodes, minOps = 1, 0
	}
	switch {
	case s.Proto == "":
		return refuse("incomplete schedule: no proto")
	case s.Nodes < minNodes || s.Nodes > protocols.MaxNodes:
		return refuse("nodes %d: want %d..%d", s.Nodes, minNodes, protocols.MaxNodes)
	case s.Blocks < 1:
		return refuse("blocks %d: want at least 1", s.Blocks)
	case s.OpsPerNode < minOps:
		return refuse("ops_per_node %d: want at least %d", s.OpsPerNode, minOps)
	}
	for i, d := range s.Decisions {
		switch d.Kind {
		case kindName(tempest.ChooseFault), kindName(tempest.ChooseHold), kindName(tempest.ChooseTie):
		default:
			return refuse("decision %d: unknown kind %q", i, d.Kind)
		}
		if d.Pick < 1 {
			return refuse("decision %d: pick %d: want at least 1 (option 0 is never recorded)", i, d.Pick)
		}
	}
	return &s, nil
}

// kindName maps a tempest choice kind to its schedule encoding.
func kindName(k tempest.ChoiceKind) string { return k.String() }
