package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"teapot/internal/analysis"
	"teapot/internal/ast"
	"teapot/internal/codegen"
	"teapot/internal/core"
	"teapot/internal/dot"
	"teapot/internal/murphi"
	"teapot/internal/protocols"
	"teapot/internal/source"
)

// targetFlags are the flags compile and vet share; a target is what either
// takes as an operand.
type targetFlags struct {
	fs         *flag.FlagSet
	optimize   *bool
	homeStart  *string
	cacheStart *string
}

func addTarget(fs *flag.FlagSet) *targetFlags {
	return &targetFlags{
		fs:         fs,
		optimize:   fs.Bool("O", true, "enable the constant-continuation optimization"),
		homeStart:  fs.String("home-start", "Home_Idle", "initial home-side state (a bundled protocol knows its own unless this is given)"),
		cacheStart: fs.String("cache-start", "Cache_Inv", "initial cache-side state (likewise)"),
	}
}

// resolve turns an operand into a compile configuration: the path of a
// .tea source file, or else the name of a bundled protocol.
func (t *targetFlags) resolve(arg string) (protocols.Entry, error) {
	if strings.HasSuffix(arg, ".tea") {
		b, err := os.ReadFile(arg)
		if err != nil {
			return protocols.Entry{}, err
		}
		return t.apply(protocols.Entry{Name: arg, Config: core.Config{Name: arg, Source: string(b)}}), nil
	}
	e, ok := protocols.Lookup(arg)
	if !ok {
		return e, fmt.Errorf("unknown protocol %q: want a .tea file or one of %s",
			arg, strings.Join(protocols.Names(), ", "))
	}
	return t.apply(e), nil
}

// apply sets the flags on a target. The start-state flags' defaults are for
// source files; a bundled protocol keeps its own states unless the flag is
// given explicitly.
func (t *targetFlags) apply(e protocols.Entry) protocols.Entry {
	e.Config.Optimize = *t.optimize
	if e.Config.HomeStart == "" || isSet(t.fs, "home-start") {
		e.Config.HomeStart = *t.homeStart
	}
	if e.Config.CacheStart == "" || isSet(t.fs, "cache-start") {
		e.Config.CacheStart = *t.cacheStart
	}
	return e
}

// cmdCompile is the compiler driver: it parses and checks one protocol and
// emits any of the back-end artifacts — executable Go (the paper's C
// target), a Murphi verification model (§7), a Graphviz state-machine
// rendering, the IR listing, a reformatted source, or a report.
//
//	teapot compile -emit go stache
//	teapot compile -home-start A -cache-start A file.tea
//
// The site ids `-emit sites` prints are the ones ContAlloc/Resume trace
// events carry (teapot sim -trace), so a trace can be read against it.
func cmdCompile(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("compile", stderr, "[flags] <file.tea | "+strings.Join(protocols.Names(), " | ")+">")
	var (
		tgt       = addTarget(fs)
		emit      = choice(fs, "emit", "stats", "artifact to emit", "go", "murphi", "dot", "ir", "fmt", "stats", "sites")
		pkg       = fs.String("pkg", "proto", "package name for -emit go")
		dotPrefix = fs.String("dot-prefix", "", `state-name prefix filter for -emit dot ("Cache_", "Home_")`)
		dotIdeal  = fs.Bool("dot-ideal", false, "elide transient states in -emit dot (Figures 1 and 2)")
		outFile   = fs.String("o", "", "output file (default stdout)")
	)
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want one protocol to compile: a .tea file or a bundled name")
	}
	e, err := tgt.resolve(fs.Arg(0))
	if err != nil {
		return err
	}
	art, err := core.Compile(e.Config)
	if err != nil {
		return err
	}

	var out string
	switch *emit {
	case "go":
		out = codegen.Generate(art.IR, *pkg)
	case "murphi":
		out = murphi.Generate(art.IR, murphi.Options{})
	case "dot":
		m := dot.Extract(art.IR, dot.Options{Prefix: *dotPrefix, IncludeTransient: !*dotIdeal})
		out = dot.Render(m, e.Config.Name)
	case "ir":
		for _, f := range art.IR.Funcs {
			out += f.Disassemble() + "\n"
		}
	case "fmt":
		out = ast.Print(art.AST)
	case "stats":
		out = stats(art, e.Config)
	case "sites":
		out = sites(art)
	}
	if *outFile == "" {
		_, err = io.WriteString(stdout, out)
		return err
	}
	return os.WriteFile(*outFile, []byte(out), 0o644)
}

func stats(art *core.Artifacts, cfg core.Config) string {
	sp := art.Sema
	st := art.Stats
	transient := 0
	for _, s := range sp.States {
		if s.Transient {
			transient++
		}
	}
	out := fmt.Sprintf("protocol %s\n", sp.ProtoName)
	out += fmt.Sprintf("  states:    %d (%d transient)\n", len(sp.States), transient)
	out += fmt.Sprintf("  messages:  %d\n", len(sp.Messages))
	out += fmt.Sprintf("  handlers:  %d\n", sp.NumHandlers())
	out += fmt.Sprintf("  suspend sites: %d (static %d, constant %d, dynamic %d, max saved %d)\n",
		st.Sites, st.Static, st.Constant, st.Dynamic, st.MaxSaved)
	out += fmt.Sprintf("  options:   %+v\n", cfg.Options())
	return out
}

// sites renders the suspend-site classification table: how each site's
// record is allocated, as the continuation pass decided it.
func sites(art *core.Artifacts) string {
	out := fmt.Sprintf("suspend sites for %s\n", art.Sema.ProtoName)
	out += fmt.Sprintf("  %4s  %-34s %-22s %-9s %s\n", "site", "handler", "target state", "class", "saved regs")
	for _, s := range art.IR.Sites {
		class := "static"
		switch {
		case s.Heap:
			class = "heap"
		case s.Constant:
			class = "constant"
		}
		out += fmt.Sprintf("  %4d  %-34s %-22s %-9s %d\n",
			s.ID, s.Func.Name, art.Sema.States[s.TargetState].Name, class,
			len(s.Func.Frags[s.FragIdx].Saved))
	}
	return out
}

// cmdVet runs the static protocol analyses (internal/analysis) and reports
// what the compiler itself does not reject: unhandled state/message pairs,
// unreachable and dead-end states, leaked or stuck continuations,
// deferred-queue progress hazards, IR hygiene problems, and avoidable
// continuation allocations.
//
//	teapot vet                       # every bundled protocol but the seeded-bug fixtures
//	teapot vet stache-buggy          # the defer-deadlock finding, status 1
//	teapot vet -json stache file.tea
//
// The verdict is negative when some target has a finding at warning level
// or above; info-level findings (-all) are advisory. The cont-alloc
// findings name suspend sites by the ids of `teapot compile -emit sites`.
func cmdVet(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("vet", stderr, "[flags] [file.tea | bundled name ...]   (no operands: every bundled protocol)")
	var (
		tgt     = addTarget(fs)
		all     = fs.Bool("all", false, "also print info-level findings")
		jsonOut = fs.Bool("json", false, "print one JSON array instead of text: per target, every finding plus the static symmetry certificate (schema pinned by TestJSONReportGolden)")
	)
	if err := parse(fs, args, -1); err != nil {
		return err
	}
	var targets []protocols.Entry
	for _, a := range fs.Args() {
		e, err := tgt.resolve(a)
		if err != nil {
			return err
		}
		targets = append(targets, e)
	}
	if fs.NArg() == 0 {
		for _, e := range protocols.All() {
			if !e.Buggy { // negative test material, failing by design
				targets = append(targets, tgt.apply(e))
			}
		}
	}

	dirty := false
	var reports []*analysis.JSONReport
	for _, e := range targets {
		art, err := core.Compile(e.Config)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Config.Name, err)
		}
		rep := analysis.Analyze(art.Protocol)
		if *jsonOut {
			reports = append(reports, rep.JSON(e.Name, analysis.ProveSymmetry(art.Protocol)))
		} else {
			for _, d := range rep.Findings {
				if d.Severity <= source.SevWarning || *all {
					fmt.Fprintln(stdout, analysis.Format(d))
				}
			}
		}
		dirty = dirty || len(rep.Actionable()) > 0
	}
	if *jsonOut {
		b, err := analysis.MarshalJSONReports(reports)
		if err != nil {
			return err
		}
		stdout.Write(b)
	}
	if dirty {
		return errNegative
	}
	return nil
}
