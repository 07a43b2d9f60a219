// Package cli is the `teapot` command: one subcommand per tool, each a
// function from its arguments and two writers to an error, and Main, which
// alone turns that error into the process's exit status:
//
//	0  the run completed and its verdict is positive
//	1  the run completed and its verdict is negative: a violation or a
//	   state-limit cut (verify), a finding at warning level or above (vet),
//	   a failing schedule or litmus test, a reproduced failure (-replay), an
//	   uncovered dispatch pair (cover -static), a seeded bug not found
//	   (tables -bug)
//	2  there is no verdict: unknown subcommand, flag, flag value or protocol
//	   name, a stray operand, an unreadable or malformed file, a compile
//	   error, an internal inconsistency
//
// 2 is also what the flag package and a Go panic return on their own, so
// nothing the runtime does unasked can be mistaken for a verdict.
//
// Subcommands write only to the writers they are handed (and to files a
// flag names), so a test runs them in process and reads the exact status.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// command is one subcommand of teapot.
type command struct {
	name    string
	summary string
	run     func(args []string, stdout, stderr io.Writer) error
}

// commands lists the subcommands in the order usage prints them.
func commands() []command {
	return []command{
		{"compile", "compile a protocol and emit Go, Murphi, DOT, IR, formatted source, stats or suspend sites", cmdCompile},
		{"vet", "run the static protocol analyses", cmdVet},
		{"verify", "model-check a bundled protocol exhaustively", cmdVerify},
		{"sim", "run one workload on the simulated Tempest machine", cmdSim},
		{"fuzz", "drive the simulator through seeded random schedules judged by the coherence oracle", cmdFuzz},
		{"litmus", "run a litmus corpus differentially across checker, simulator and fuzzer", cmdLitmus},
		{"cover", "diff run manifests, or cross-check one against static reachability", cmdCover},
		{"tables", "regenerate the paper's tables and figures", cmdTables},
	}
}

// errNegative is what a subcommand returns when its run completed and the
// verdict, which it has already printed, is negative.
var errNegative = errors.New("negative verdict")

// shown wraps an error the flag package has already written to stderr.
type shown struct{ error }

// Main runs the subcommand args names and returns the exit status.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	name := args[0]
	if name == "-h" || name == "-help" || name == "--help" || name == "help" {
		usage(stdout)
		return 0
	}
	for _, c := range commands() {
		if c.name != name {
			continue
		}
		err := c.run(args[1:], stdout, stderr)
		switch {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case errors.Is(err, errNegative):
			return 1
		case !errors.As(err, &shown{}):
			fmt.Fprintf(stderr, "teapot %s: %v\n", name, err)
		}
		return 2
	}
	fmt.Fprintf(stderr, "teapot: unknown subcommand %q\n", name)
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: teapot <subcommand> [flags] [operands]   (teapot <subcommand> -h lists the flags)")
	for _, c := range commands() {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "exit status: 0 positive verdict, 1 negative verdict, 2 no verdict (bad usage or input)")
}

// newFlagSet starts a subcommand's flag set: errors and -h go to stderr,
// headed by the synopsis.
func newFlagSet(name string, stderr io.Writer, synopsis string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: teapot %s %s\n", name, synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses args and refuses more than maxOperands operands (-1: any
// number), so nothing on the command line is silently ignored.
func parse(fs *flag.FlagSet, args []string, maxOperands int) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return shown{err}
	}
	if maxOperands >= 0 && fs.NArg() > maxOperands {
		stray := fs.Arg(maxOperands)
		if fs.Lookup("proto") != nil {
			return fmt.Errorf("unexpected argument %q (did you mean -proto %s?)", stray, stray)
		}
		return fmt.Errorf("unexpected argument %q", stray)
	}
	return nil
}

// isSet reports whether the command line gave the flag.
func isSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// choice registers a string flag restricted to a fixed set of values, and
// intRange an integer flag restricted to lo..hi (hi < lo: no upper bound).
// Both refuse anything else while parsing, so an unknown value is a parse
// error naming the flag and what it accepts, before the subcommand does any
// work; the help text says the same.
func choice(fs *flag.FlagSet, name, def, help string, choices ...string) *string {
	val, want := def, strings.Join(choices, " | ")
	fs.Func(name, fmt.Sprintf("%s (`string`: %s; default %s)", help, want, def), func(s string) error {
		if !slices.Contains(choices, s) {
			return errors.New("want " + want)
		}
		val = s
		return nil
	})
	return &val
}

func intRange(fs *flag.FlagSet, name string, def, lo, hi int, help string) *int {
	val, want := def, fmt.Sprintf("%d..%d", lo, hi)
	if hi < lo {
		want = fmt.Sprintf("at least %d", lo)
	}
	fs.Func(name, fmt.Sprintf("%s (`int`: %s; default %d)", help, want, def), func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil || n < lo || (hi >= lo && n > hi) {
			return errors.New("want " + want)
		}
		val = n
		return nil
	})
	return &val
}
