// Package cliflags holds the flag plumbing shared by the protocol-running
// drivers (teapot-verify, teapot-fuzz, teapot-sim, teapot-litmus), so
// "-proto stache-ft -net drop=1,dup=1 -workers 4" parses — and means —
// exactly the same thing in each of them that takes it.
package cliflags

import (
	"flag"
	"fmt"
	"strings"

	"teapot/internal/core"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
)

// Net adapts netmodel.Parse to the flag.Value interface:
//
//	-net drop=1,dup=1,reorder=2
//
// Keys: reorder, delay, drop, dup, corrupt, rate; "" and "none" mean a
// perfect network.
type Net struct {
	Model netmodel.Model
}

// String implements flag.Value.
func (n *Net) String() string {
	if n == nil {
		return ""
	}
	return n.Model.String()
}

// Set implements flag.Value.
func (n *Net) Set(s string) error {
	m, err := netmodel.Parse(s)
	if err != nil {
		return err
	}
	n.Model = m
	return nil
}

// AddNet registers the -net flag on fs.
func AddNet(fs *flag.FlagSet) *Net {
	n := &Net{}
	fs.Var(n, "net", `network fault model, e.g. "drop=1,dup=1,reorder=2" (keys: reorder, delay, drop, dup, corrupt, rate; default: perfect network)`)
	return n
}

// Run bundles the shared run-shape flags.
type Run struct {
	Proto   *string
	Nodes   *int
	Blocks  *int
	Workers *int
	Seed    *uint64
	Net     *Net
}

// AddRun registers the shared flags on fs with the given defaults.
func AddRun(fs *flag.FlagSet, defProto string, defNodes, defBlocks int) *Run {
	return &Run{
		Proto:   fs.String("proto", defProto, "bundled protocol: "+strings.Join(RunnableNames(), " | ")),
		Nodes:   fs.Int("nodes", defNodes, "number of nodes"),
		Blocks:  fs.Int("blocks", defBlocks, "number of shared blocks"),
		Workers: fs.Int("workers", 0, "model-checker BFS worker goroutines (0 = GOMAXPROCS)"),
		Seed:    fs.Uint64("seed", 1, "simulator/fuzzer RNG seed (0 = derive a stable seed from the run shape, so -seed 0 names the same run to every tool)"),
		Net:     AddNet(fs),
	}
}

// Litmus bundles the litmus-harness flags (teapot-litmus).
type Litmus struct {
	Corpus *string
	Mode   *string
	Budget *int
}

// AddLitmus registers the litmus-harness flags on fs. Mode is validated by
// ModeOK at use time (flag parsing stays declarative).
func AddLitmus(fs *flag.FlagSet, defCorpus string) *Litmus {
	return &Litmus{
		Corpus: fs.String("corpus", defCorpus, "directory of .lit litmus tests (non-recursive)"),
		Mode:   fs.String("mode", "all", "substrates to run: sim | fuzz | mc | all"),
		Budget: fs.Int("budget", 0, "model-checker state budget per test (0 = the harness default); fuzz schedule counts scale with it"),
	}
}

// ModeOK reports whether a -mode value is valid.
func (l *Litmus) ModeOK() bool {
	switch *l.Mode {
	case "sim", "fuzz", "mc", "all":
		return true
	}
	return false
}

// AddReport registers the shared -report flag on fs: the path of the
// versioned run manifest (coverage sets plus resource accounting, see
// internal/manifest) the tool writes after the run; "" writes nothing.
// Shared so "-report out.json" means the same artifact in teapot-verify,
// teapot-sim, and teapot-fuzz — that is what makes manifests diffable with
// teapot-cover.
func AddReport(fs *flag.FlagSet) *string {
	return fs.String("report", "", "write a run manifest (coverage + resource accounting) to this JSON file")
}

// Spec resolves the parsed flags into a runnable spec.
func (r *Run) Spec() (core.RunSpec, error) {
	spec, err := protocols.Spec(*r.Proto, *r.Nodes, *r.Blocks)
	if err != nil {
		return spec, err
	}
	spec.Net = r.Net.Model
	spec.Workers = *r.Workers
	spec.Seed = *r.Seed
	return spec, nil
}

// RunnableNames lists the bundled protocols Spec can run (the registry
// minus compile-only fixtures), in registry order. Static so that
// registering flags never compiles a protocol; a cliflags test keeps it
// in sync with protocols.Spec.
func RunnableNames() []string {
	return []string{"stache", "stache-ft", "stache-asym", "stache-buggy", "stache-ft-buggy", "lcm", "lcm-mcc", "bufwrite", "update"}
}

// BadFlag formats a consistent usage error.
func BadFlag(tool, flagName, val, want string) error {
	return fmt.Errorf("%s: -%s %q: want %s", tool, flagName, val, want)
}
