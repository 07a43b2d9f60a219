package core_test

import (
	"testing"

	"teapot/internal/analysis"
	"teapot/internal/codegen"
	"teapot/internal/core"
	"teapot/internal/ir"
	"teapot/internal/murphi"
	"teapot/internal/protocols"
)

func instrs(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Code)
	}
	return n
}

// FuzzCompile: a source text compiles or is refused with diagnostics, never
// a panic; one that compiles compiles again to as many IR instructions, and
// the Go and Murphi back ends and the static analyses take it. The seeds are
// the bundled protocols' sources and run as ordinary subtests.
func FuzzCompile(f *testing.F) {
	for _, e := range protocols.All() {
		f.Add(e.Config.Source, true)
	}
	f.Add(tiny, false)
	f.Fuzz(func(t *testing.T, src string, optimize bool) {
		cfg := core.Config{Name: "fuzz.tea", Source: src, Optimize: optimize}
		art, err := core.Compile(cfg)
		if err != nil {
			return
		}
		again, err := core.Compile(cfg)
		if err != nil || instrs(again.IR) != instrs(art.IR) {
			t.Fatalf("second compile: %v, %d IR instructions after %d", err, instrs(again.IR), instrs(art.IR))
		}
		codegen.Generate(art.IR, "proto")
		murphi.Generate(art.IR, murphi.Options{})
		analysis.Analyze(art.Protocol)
	})
}
