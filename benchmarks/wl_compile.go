package main

import (
	"fmt"
	"strings"

	"teapot/internal/analysis"
	"teapot/internal/codegen"
	"teapot/internal/cont"
	"teapot/internal/core"
	"teapot/internal/ir"
	"teapot/internal/lexer"
	"teapot/internal/liveness"
	"teapot/internal/lower"
	"teapot/internal/murphi"
	"teapot/internal/parser"
	"teapot/internal/protocols"
	"teapot/internal/sema"
	"teapot/internal/source"
)

// compileWL sends every bundled source through core.Compile with Optimize
// on and off, then codegen, murphi and analysis on the optimized artifact.
// The sources are fixed; the seed sets their order.
type compileWL struct {
	env     env
	entries []protocols.Entry
	// Outputs of the reference compilation made in set-up. Every pass must
	// reproduce them byte for byte: the compiler is deterministic.
	refGo, refMurphi map[string]string
	findings         map[string]int
}

// A pass is this many rounds over the sources, about 0.3 s.
func (w *compileWL) rounds() int {
	if w.env.small {
		return 1
	}
	return 5
}

func (w *compileWL) setup(tr *tracer, c *checks) error {
	entries := protocols.All()
	if w.env.small {
		entries = entries[:2]
	}
	for i := len(entries) - 1; i > 0; i-- {
		j := int(subSeed(w.env.seed, uint64(i)) % uint64(i+1))
		entries[i], entries[j] = entries[j], entries[i]
	}
	w.entries = entries
	w.refGo, w.refMurphi, w.findings = map[string]string{}, map[string]string{}, map[string]int{}
	for _, e := range entries {
		sp := tr.begin("core.Compile")
		art, err := core.Compile(e.Config)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("compile %s: %w", e.Name, err)
		}
		file := source.NewFile(e.Config.Name, e.Config.Source)
		var errs source.ErrorList
		got := compileCounts{
			Tokens:   len(lexer.ScanAll(file, &errs)),
			IRInstrs: irInstrs(art.IR),
			Sites:    art.Stats.Sites, StaticSites: art.Stats.Static, HeapSites: art.Stats.Dynamic,
		}
		w.refGo[e.Name] = codegen.Generate(art.IR, "proto")
		w.refMurphi[e.Name] = murphi.Generate(art.IR, murphi.Options{})
		got.CodegenLines = strings.Count(w.refGo[e.Name], "\n")
		got.MurphiLines = strings.Count(w.refMurphi[e.Name], "\n")
		got.Findings = len(analysis.Analyze(art.Protocol).Actionable())
		w.findings[e.Name] = got.Findings
		want, ok := expected.Compile[e.Name]
		c.ok(ok && got == want, "compile %s: got %+v, recorded %+v", e.Name, got, want)
		c.ok(e.Buggy || got.Findings == 0, "compile %s: vet is not clean: %d actionable findings", e.Name, got.Findings)
	}
	return nil
}

func (w *compileWL) pass(tr *tracer, c *checks) {
	for r := 0; r < w.rounds(); r++ {
		for _, e := range w.entries {
			sp := tr.begin("core.Compile")
			opt, err := core.Compile(e.Config)
			tr.end(sp)
			c.ok(err == nil, "compile %s: %v", e.Name, err)

			unoptCfg := e.Config
			unoptCfg.Optimize = false
			sp = tr.begin("core.Compile")
			unopt, err := core.Compile(unoptCfg)
			tr.end(sp)
			c.ok(err == nil, "compile %s unoptimized: %v", e.Name, err)
			if opt == nil || unopt == nil {
				continue
			}
			c.ok(unopt.Stats.Sites == opt.Stats.Sites && unopt.Stats.Constant == 0,
				"compile %s: unoptimized has %d sites (%d constant), optimized %d",
				e.Name, unopt.Stats.Sites, unopt.Stats.Constant, opt.Stats.Sites)

			sp = tr.begin("codegen.Generate")
			goSrc := codegen.Generate(opt.IR, "proto")
			tr.end(sp)
			c.ok(goSrc == w.refGo[e.Name], "codegen %s: output differs from the set-up compilation", e.Name)

			sp = tr.begin("murphi.Generate")
			mur := murphi.Generate(opt.IR, murphi.Options{})
			tr.end(sp)
			c.ok(mur == w.refMurphi[e.Name], "murphi %s: output differs from the set-up compilation", e.Name)

			sp = tr.begin("analysis.Analyze")
			found := len(analysis.Analyze(opt.Protocol).Actionable())
			tr.end(sp)
			c.ok(found == w.findings[e.Name], "vet %s: %d actionable findings, set-up had %d", e.Name, found, w.findings[e.Name])
		}
	}
}

func (w *compileWL) layers(tr *tracer, run tracedRun, m metrics) error {
	cfgs := make([]core.Config, len(w.entries))
	for i, e := range w.entries {
		cfgs[i] = e.Config
	}
	return compileLayers(tr, cfgs, w.rounds(), m)
}

// bundledConfigs returns the compiler configuration of each distinct
// bundled protocol among names, in order of first appearance.
func bundledConfigs(names ...string) []core.Config {
	var cfgs []core.Config
	seen := map[string]bool{}
	for _, name := range names {
		if e, ok := protocols.Lookup(name); ok && !seen[name] {
			seen[name] = true
			cfgs = append(cfgs, e.Config)
		}
	}
	return cfgs
}

func irInstrs(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Code)
	}
	return n
}

// compileLayers runs the compiler over cfgs one public stage at a time, so
// that each stage has a span of its own, then core.Compile as a whole and
// the back ends on its artifact. Times are per round over all of cfgs, the
// median of rounds; counts are totals over cfgs. Every workload's traced
// run calls it with the sources that workload compiles in set-up.
func compileLayers(tr *tracer, cfgs []core.Config, rounds int, m metrics) error {
	stages := []string{"lexer.ms", "parser.ms", "sema.ms", "lower.ms", "liveness.ms", "cont.ms",
		"codegen.ms", "murphi.ms", "analysis.ms", "analysis.symmetry_ms", "core.compile_ms", "core.compile_allocs"}
	perRound := map[string][]float64{}
	// Totals over cfgs; every round counts the same, the last one is kept.
	type totals struct{ tokens, lowered, transformed, sites, static, heap, goLines, murphiLines int }
	var n totals
	for r := 0; r < rounds; r++ {
		t := map[string]float64{}
		n = totals{}
		for _, cfg := range cfgs {
			file := source.NewFile(cfg.Name, cfg.Source)
			var errs source.ErrorList
			sp := tr.begin("lexer.ScanAll")
			toks := lexer.ScanAll(file, &errs)
			lex := ms(tr.end(sp))
			n.tokens += len(toks)

			sp = tr.begin("parser.Parse")
			prog, err := parser.Parse(cfg.Name, cfg.Source)
			parse := ms(tr.end(sp))
			if err != nil {
				return fmt.Errorf("parse %s: %w", cfg.Name, err)
			}
			sp = tr.begin("sema.Check")
			checked, err := sema.Check(prog)
			t["sema.ms"] += ms(tr.end(sp))
			if err != nil {
				return fmt.Errorf("check %s: %w", cfg.Name, err)
			}
			sp = tr.begin("lower.Lower")
			irp := lower.Lower(checked)
			t["lower.ms"] += ms(tr.end(sp))
			n.lowered += irInstrs(irp)

			sp = tr.begin("liveness.Analyze")
			for _, f := range irp.Funcs {
				liveness.Analyze(f)
			}
			live := ms(tr.end(sp))
			sp = tr.begin("cont.Transform")
			cont.Transform(irp, cfg.Options())
			transform := ms(tr.end(sp))
			stats := cont.Summarize(irp)
			n.transformed += irInstrs(irp)
			n.sites += stats.Sites
			n.static += stats.Static
			n.heap += stats.Dynamic

			// parser.Parse scans before it parses and cont.Transform runs
			// liveness per function; subtracting gives each its own part.
			t["lexer.ms"] += lex
			t["parser.ms"] += max(parse-lex, 0)
			t["liveness.ms"] += live
			t["cont.ms"] += max(transform-live, 0)

			var art *core.Artifacts
			cost := measure(func() {
				sp := tr.begin("core.Compile")
				art, err = core.Compile(cfg)
				t["core.compile_ms"] += ms(tr.end(sp))
			})
			t["core.compile_allocs"] += cost.mallocs
			if err != nil {
				return fmt.Errorf("compile %s: %w", cfg.Name, err)
			}

			sp = tr.begin("codegen.Generate")
			goSrc := codegen.Generate(art.IR, "proto")
			t["codegen.ms"] += ms(tr.end(sp))
			n.goLines += strings.Count(goSrc, "\n")
			sp = tr.begin("murphi.Generate")
			mur := murphi.Generate(art.IR, murphi.Options{})
			t["murphi.ms"] += ms(tr.end(sp))
			n.murphiLines += strings.Count(mur, "\n")
			sp = tr.begin("analysis.Analyze")
			analysis.Analyze(art.Protocol)
			t["analysis.ms"] += ms(tr.end(sp))
			sp = tr.begin("analysis.ProveSymmetry")
			analysis.ProveSymmetry(art.Protocol)
			t["analysis.symmetry_ms"] += ms(tr.end(sp))
		}
		for _, s := range stages {
			perRound[s] = append(perRound[s], t[s])
		}
	}
	for _, s := range stages {
		m.layer(s, perRound[s]...)
	}
	m.layer("lexer.tokens", float64(n.tokens))
	m.layer("lower.ir_instrs", float64(n.lowered))
	m.layer("cont.ir_instrs", float64(n.transformed))
	m.layer("cont.sites", float64(n.sites))
	m.layer("cont.static_sites", float64(n.static))
	m.layer("cont.heap_sites", float64(n.heap))
	m.layer("codegen.lines", float64(n.goLines))
	m.layer("murphi.lines", float64(n.murphiLines))
	return nil
}
