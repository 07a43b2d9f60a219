// Package manifest defines the versioned run manifest: the machine-readable
// artifact every protocol-running tool can leave behind (-report out.json,
// teapot verify -json). A manifest names the run (protocol, geometry,
// network fault model, seed), carries the coverage sets the run exercised
// (internal/obs.Coverage), an obs counter summary, per-substrate resource
// accounting, and — after a violation — the flight-recorder tail of the
// counterexample replay. Manifests from different substrates are diffable:
// teapot cover names fuzz-vs-mc coverage gaps by exact (state, message)
// pair, and the static cross-check compares a manifest against
// internal/analysis reachability.
//
// The package is almost a leaf: it knows obs (for CoverageReport) and
// nothing of mc, sim, or fuzz — those layers lower their results into the
// plain structs here, so one schema serves every tool.
package manifest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"teapot/internal/obs"
)

// Version is the manifest schema version. Bump on any incompatible change
// to the structs below; loaders reject versions they do not know.
const Version = 1

// Manifest is one run's machine-readable record.
type Manifest struct {
	ManifestVersion int `json:"manifest_version"`
	// Tool is the subcommand that ran, under the name it had as a command
	// of its own (the values are versioned with the schema): "teapot-verify"
	// | "teapot-sim" | "teapot-fuzz" | "teapot-litmus".
	Tool     string `json:"tool"`
	Protocol string `json:"protocol"` // bundled-protocol registry name
	Nodes    int    `json:"nodes"`
	Blocks   int    `json:"blocks"`
	Net      string `json:"net,omitempty"`  // netmodel.Model.String(); "" = litmus tests whose models differ
	Seed     uint64 `json:"seed,omitempty"` // sim/fuzz RNG seed; 0 for the checker

	Coverage *obs.CoverageReport `json:"coverage,omitempty"`
	Obs      *ObsSummary         `json:"obs,omitempty"`

	MC     *MCStats     `json:"mc,omitempty"`
	Sim    *SimStats    `json:"sim,omitempty"`
	Fuzz   *FuzzStats   `json:"fuzz,omitempty"`
	Litmus *LitmusStats `json:"litmus,omitempty"`

	// FlightRecorder is the last-N-events tail of a violating run (or of
	// the counterexample replay), one obs.FormatEvent line per event.
	FlightRecorder []string `json:"flight_recorder,omitempty"`
}

// ObsSummary condenses a Collector's counters.
type ObsSummary struct {
	Events        int64            `json:"events"`
	ByKind        map[string]int64 `json:"by_kind,omitempty"`
	MaxQueueDepth int64            `json:"max_queue_depth"`
}

// MCStats is the model checker's resource accounting: everything except
// ElapsedSec and StatesPerSec is deterministic for any worker count.
type MCStats struct {
	States        int        `json:"states"`
	Transitions   int        `json:"transitions"`
	MaxDepth      int        `json:"max_depth"`
	Workers       int        `json:"workers"`
	ElapsedSec    float64    `json:"elapsed_sec"`
	StatesPerSec  float64    `json:"states_per_sec"`
	PeakFrontier  int        `json:"peak_frontier"`
	Decodes       int64      `json:"decodes"` // states decoded because a handler had to run (mc.Result.Decodes)
	VisitedBytes  int64      `json:"visited_bytes"`
	BytesPerState float64    `json:"bytes_per_state"`
	DedupRatio    float64    `json:"dedup_ratio"`
	SymmetryGroup int        `json:"symmetry_group"`
	SymmetryNote  string     `json:"symmetry_note,omitempty"`
	Violation     *Violation `json:"violation,omitempty"`
}

// Violation is a checker counterexample in manifest form (mirrors
// mc.Violation; Steps replay with mc.ReplaySteps after conversion).
type Violation struct {
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
	// Waits explains a deadlock, one line per stalled (node, block).
	Waits []string `json:"waits,omitempty"`
	Trace []string `json:"trace,omitempty"`
	Steps []Step   `json:"steps,omitempty"`
}

// Step is one machine-readable counterexample step (mirrors mc.Step).
type Step struct {
	Kind  string `json:"kind"`
	From  int    `json:"from"`
	To    int    `json:"to"`
	Idx   int    `json:"idx"`
	Node  int    `json:"node"`
	Block int    `json:"block"`
	Event string `json:"event,omitempty"`
	Msg   string `json:"msg,omitempty"`
}

// SimStats is the simulator's accounting for one run.
type SimStats struct {
	Cycles       int64   `json:"cycles"`
	Events       int64   `json:"events"` // obs events emitted
	ElapsedSec   float64 `json:"elapsed_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
	Accesses     int64   `json:"accesses"`
	Faults       int64   `json:"faults"`
	Messages     int64   `json:"messages"`
	Drops        int64   `json:"drops"`
	Dups         int64   `json:"dups"`
	Delays       int64   `json:"delays"`
	Timeouts     int64   `json:"timeouts"`
}

// FuzzStats is a fuzzing campaign's accounting.
type FuzzStats struct {
	Schedules    int     `json:"schedules"` // schedules executed
	ChoicePoints uint64  `json:"choice_points"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	SchedPerSec  float64 `json:"sched_per_sec"`
	Failed       bool    `json:"failed"`
	Verdict      string  `json:"verdict,omitempty"` // failure description, "" when clean
	// ShrunkDecisions is the minimal reproducer's length after delta
	// debugging (0 when the campaign ran clean or shrinking was off).
	ShrunkDecisions int `json:"shrunk_decisions,omitempty"`
}

// LitmusStats is a litmus-harness run's accounting. One manifest covers
// the whole corpus run (Protocol/Nodes/Blocks name the corpus's single
// protocol and its largest geometry): litmus tests are small and numerous,
// so the per-test record lives in the -json report, and the manifest
// carries the aggregate the coverage plane diffs.
type LitmusStats struct {
	Corpus   string `json:"corpus"` // corpus directory
	Mode     string `json:"mode"`   // substrate selection the run used
	Tests    int    `json:"tests"`
	Failed   int    `json:"failed"`
	MCStates int    `json:"mc_states"` // states summed over every test's exploration
	// Verdict is "" when the corpus ran clean, else the first failure in
	// corpus order, "<test>: [<mode>] <class>: <msg>".
	Verdict string `json:"verdict,omitempty"`
}

// Encode renders the manifest as deterministic, indented JSON. Mirrors
// teapot vet -json conventions: HTML escaping off (state names like
// "Home_RO->..." in transition keys must survive readably), two-space
// indent, trailing newline.
func (m *Manifest) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Write validates and writes the manifest to path.
func Write(path string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads and validates a manifest.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Decode parses and validates a manifest. Its errors start "manifest: ".
func Decode(data []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return m, nil
}

// Validate checks the schema invariants every consumer relies on.
func (m *Manifest) Validate() error {
	if m.ManifestVersion != Version {
		return fmt.Errorf("manifest_version %d, want %d", m.ManifestVersion, Version)
	}
	if m.Tool == "" {
		return fmt.Errorf("missing tool")
	}
	if m.Protocol == "" {
		return fmt.Errorf("missing protocol")
	}
	if m.Nodes <= 0 || m.Blocks <= 0 {
		return fmt.Errorf("bad geometry %dx%d", m.Nodes, m.Blocks)
	}
	n := 0
	if m.MC != nil {
		n++
	}
	if m.Sim != nil {
		n++
	}
	if m.Fuzz != nil {
		n++
	}
	if m.Litmus != nil {
		n++
	}
	if n != 1 {
		return fmt.Errorf("want exactly one of mc/sim/fuzz/litmus stats, have %d", n)
	}
	if m.Coverage != nil && m.Coverage.Dispatch == nil {
		return fmt.Errorf("coverage block without dispatch set")
	}
	return nil
}

// Shape renders the run shape for messages: "proto 2x1 net=drop=1".
func (m *Manifest) Shape() string {
	s := fmt.Sprintf("%s %dx%d", m.Protocol, m.Nodes, m.Blocks)
	if m.Net != "" {
		s += " net=" + m.Net
	}
	return s
}

// MissingKeys returns the keys present in ref but absent from other,
// sorted — the core of every coverage diff.
func MissingKeys(ref, other map[string]uint64) []string {
	var out []string
	for k := range ref {
		if _, ok := other[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
