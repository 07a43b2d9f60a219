// Package core is the public facade of the Teapot system: it compiles a
// protocol specification into an executable protocol (run by
// internal/runtime on a simulated machine, or explored by internal/mc) and
// exposes the compilation artifacts the other backends (Murphi text, Go
// source, DOT state machines) consume.
//
// A typical use:
//
//	proto, err := core.Compile(core.Config{
//		Name:       "stache.tea",
//		Source:     src,
//		Optimize:   true,
//		HomeStart:  "Home_Idle",
//		CacheStart: "Cache_Inv",
//	})
//
// Vet runs the static protocol analyses over the compiled protocol —
// cheaper than model checking and able to name the offending state and
// message directly:
//
//	for _, d := range core.Vet(proto.Protocol) { fmt.Println(d) }
package core

import (
	"fmt"

	"teapot/internal/analysis"
	"teapot/internal/ast"
	"teapot/internal/cont"
	"teapot/internal/ir"
	"teapot/internal/lower"
	"teapot/internal/parser"
	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/source"
)

// Config controls a compilation.
type Config struct {
	Name   string // source name for diagnostics
	Source string // Teapot program text

	// Optimize enables the constant-continuation optimization (the
	// paper's "Teapot Optimized" configuration). Live-variable analysis
	// runs in both configurations, as in the paper.
	Optimize bool
	// NoLiveness disables live-variable analysis (an ablation mode the
	// paper does not measure; every named register is then saved).
	NoLiveness bool

	// HomeStart and CacheStart name the initial states for blocks on
	// their home node and on other nodes.
	HomeStart  string
	CacheStart string
}

// Options derives the continuation-pass options.
func (c Config) Options() cont.Options {
	return cont.Options{Liveness: !c.NoLiveness, ConstCont: c.Optimize}
}

// Artifacts bundles every compilation product.
type Artifacts struct {
	AST      *ast.Program
	Sema     *sema.Program
	IR       *ir.Program
	Protocol *runtime.Protocol
	Stats    cont.Stats
}

// Compile runs the full pipeline: parse, check, lower, continuation
// transform, and protocol assembly.
func Compile(cfg Config) (*Artifacts, error) {
	prog, err := parser.Parse(cfg.Name, cfg.Source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	sp, err := sema.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	irp := lower.Lower(sp)
	cont.Transform(irp, cfg.Options())

	p := &runtime.Protocol{IR: irp}
	if cfg.HomeStart != "" {
		p.HomeStart = p.StateIndex(cfg.HomeStart)
		if p.HomeStart < 0 {
			return nil, fmt.Errorf("unknown home start state %q", cfg.HomeStart)
		}
	}
	if cfg.CacheStart != "" {
		p.CacheStart = p.StateIndex(cfg.CacheStart)
		if p.CacheStart < 0 {
			return nil, fmt.Errorf("unknown cache start state %q", cfg.CacheStart)
		}
	}
	return &Artifacts{
		AST:      prog,
		Sema:     sp,
		IR:       irp,
		Protocol: p,
		Stats:    cont.Summarize(irp),
	}, nil
}

// MustCompile is Compile for tests and embedded protocol sources that are
// known to be valid; it panics on error.
func MustCompile(cfg Config) *Artifacts {
	a, err := Compile(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Vet runs the static protocol analyses (internal/analysis) over a
// compiled protocol and returns the findings, sorted by position and
// check ID. An empty slice means the protocol is clean; findings of
// warning severity or worse indicate likely protocol bugs worth fixing
// before handing the protocol to the model checker.
func Vet(p *runtime.Protocol) []source.Diagnostic {
	return analysis.Analyze(p).Findings
}
