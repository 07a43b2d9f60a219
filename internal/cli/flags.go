package cli

import (
	"flag"
	"strings"

	"teapot/internal/core"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
)

// The flags more than one subcommand takes are registered here, so that
// "-proto stache-ft -net drop=1,dup=1 -workers 4" parses — and means —
// exactly the same thing in each subcommand that takes it.

// netFlag adapts netmodel.Parse to the flag.Value interface:
//
//	-net drop=1,dup=1,reorder=2
//
// The keys are netmodel.Keys; "" and "none" mean a perfect network.
type netFlag struct {
	Model netmodel.Model
}

func (n *netFlag) String() string {
	if n == nil {
		return ""
	}
	return n.Model.String()
}

func (n *netFlag) Set(s string) error {
	m, err := netmodel.Parse(s)
	if err != nil {
		return err
	}
	n.Model = m
	return nil
}

func addNet(fs *flag.FlagSet) *netFlag {
	n := &netFlag{}
	fs.Var(n, "net", `network fault model, e.g. "drop=1,dup=1,reorder=2" (keys: `+netmodel.Keys+`; default: perfect network)`)
	return n
}

// addNodes registers -nodes, accepting minNodes..protocols.MaxNodes: a
// simulated machine may have one node, a checked or fuzzed one needs two
// (one node is its own home and reaches nothing).
func addNodes(fs *flag.FlagSet, def, minNodes int) *int {
	return intRange(fs, "nodes", def, minNodes, protocols.MaxNodes, "number of nodes")
}

func addIters(fs *flag.FlagSet) *int {
	return intRange(fs, "iters", 4, 1, 0, "workload iterations")
}

func addWorkers(fs *flag.FlagSet) *int {
	return intRange(fs, "workers", 0, 0, -1, "model-checker BFS worker goroutines (0 = GOMAXPROCS)")
}

func addSeed(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("seed", 1, "simulator/fuzzer RNG seed (0 = derive a stable seed from the run shape, so -seed 0 names the same run to every subcommand)")
}

// addReport registers -report: the path of the versioned run manifest
// (coverage sets plus resource accounting, see internal/manifest) written
// after the run. One flag, so the manifests of verify, sim, fuzz and litmus
// are the same artifact and `teapot cover` can diff them.
func addReport(fs *flag.FlagSet) *string {
	return fs.String("report", "", "write a run manifest (coverage + resource accounting) to this JSON file")
}

// runFlags bundles the run-shape flags of the subcommands that take a
// bundled protocol by name (verify, fuzz). What only one of them reads —
// verify's -workers, fuzz's -seed — it registers itself.
type runFlags struct {
	Proto  *string
	Nodes  *int
	Blocks *int
	Net    *netFlag
}

func addRun(fs *flag.FlagSet, defProto string, defNodes, defBlocks int) *runFlags {
	return &runFlags{
		Proto:  fs.String("proto", defProto, "bundled protocol: "+strings.Join(protocols.RunnableNames(), " | ")),
		Nodes:  addNodes(fs, defNodes, 2),
		Blocks: intRange(fs, "blocks", defBlocks, 1, 0, "number of shared blocks"),
		Net:    addNet(fs),
	}
}

// spec resolves the parsed flags into a runnable spec.
func (r *runFlags) spec() (core.RunSpec, error) {
	spec, err := protocols.Spec(*r.Proto, *r.Nodes, *r.Blocks)
	spec.Net = r.Net.Model
	return spec, err
}
