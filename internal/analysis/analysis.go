// Package analysis is `teapot vet`: a static protocol-analysis pass suite
// over compiled Teapot protocols that catches coherence-protocol bugs
// before the model checker runs.
//
// The paper's §7 workflow discovers protocol bugs only by exhaustive Murφ
// exploration. Many of those bugs — unhandled (state, message) pairs,
// unreachable states, continuations that suspend but can never resume,
// deferred queues that never drain, requests deferred while a peer is
// suspended awaiting the reply — are decidable statically from the IR and
// metadata that internal/sema, internal/lower, and internal/cont already
// produce. Each pass here emits structured source.Diagnostics with a
// position, a severity, and a stable check ID, and the whole report is
// deterministic: the same protocol always yields a byte-identical report
// (the repo's bit-for-bit reproducibility rule).
//
// The passes:
//
//	vet:coverage       (state, message) pairs with no handler, DEFAULT, or
//	                   explicit queue/nack/drop policy — the matrix the model
//	                   checker would otherwise discover one cell at a time
//	vet:unreachable    states no SetState/Suspend path reaches from the
//	                   configured start states
//	vet:no-exit        transient states with no outgoing transition or Resume
//	vet:cont-leak      handler paths in a subroutine state that transition
//	                   away without resuming or forwarding the continuation
//	vet:cont-stuck     subroutine states that can never resume or forward
//	                   their continuation at all
//	vet:queue-stuck    states that Enqueue but have no transitioning handler,
//	                   so the deferred queue can never drain
//	vet:defer-deadlock request messages every peer answers synchronously,
//	                   deferred by a state on the answering side (the class
//	                   of bug §7's Stache counterexample exhibits)
//	vet:dead-store     pure IR instructions whose result is never used
//	vet:unassigned     reads of registers no path ever writes
//	vet:cont-alloc     heap-allocated continuation records that save only
//	                   compile-time constants (Table 1's allocation-count
//	                   optimization, surfaced as an actionable diagnostic)
//	vet:timeout        transient states that block on a droppable message
//	                   without the explicit TIMEOUT handler the runtimes
//	                   require to arm a recovery timer (advisory when the
//	                   protocol declares no TIMEOUT at all)
//	vet:symmetry       advisory witnesses when a handler is not equivariant
//	                   under node/block permutations (the machine-checkable
//	                   SymmetryCert behind the model checker's certificate-
//	                   gated symmetry reduction; see ProveSymmetry)
//	vet:dup-idempotence advisory: handlers of TIMEOUT-declaring (i.e.
//	                   fault-tolerant) protocols whose effects are visibly
//	                   non-idempotent under duplicated delivery — unguarded
//	                   continuation resumes and counter read-modify-writes
package analysis

import (
	"fmt"
	"strings"

	"teapot/internal/ast"
	"teapot/internal/ir"
	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/source"
)

// passes is the suite, in a fixed order: each pass inspects the compiled
// protocol through the Ctx and reports findings under its check ID, and
// must be deterministic.
var passes = []struct {
	check string
	run   func(*Ctx)
}{
	{"vet:coverage", runCoverage},
	{"vet:unreachable", runReachability},
	{"vet:no-exit", runNoExit},
	{"vet:cont-leak", runContLeak},
	{"vet:cont-stuck", runContStuck},
	{"vet:queue-stuck", runQueueStuck},
	{"vet:defer-deadlock", runDeferDeadlock},
	{"vet:dead-store", runDeadStore},
	{"vet:unassigned", runUnassigned},
	{"vet:cont-alloc", runCostLint},
	{"vet:timeout", runTimeout},
	{"vet:symmetry", runSymmetry},
	{"vet:dup-idempotence", runDupIdempotence},
}

// Report is the outcome of a vet run: findings sorted by file, position,
// check ID, and message.
type Report struct {
	Findings []source.Diagnostic
}

// Analyze runs every pass over a compiled protocol and returns the sorted
// report.
func Analyze(p *runtime.Protocol) *Report {
	c := newCtx(p)
	for _, ps := range passes {
		c.check = ps.check
		ps.run(c)
	}
	source.SortDiagnostics(c.report.Findings)
	return c.report
}

// Actionable returns the findings of warning severity or worse — the set
// the drivers gate on (info findings are advisory).
func (r *Report) Actionable() []source.Diagnostic {
	var out []source.Diagnostic
	for _, d := range r.Findings {
		if d.Severity <= source.SevWarning {
			out = append(out, d)
		}
	}
	return out
}

// ByCheck returns the findings carrying the given check ID (with or without
// the "vet:" prefix).
func (r *Report) ByCheck(id string) []source.Diagnostic {
	id = strings.TrimPrefix(id, "vet:")
	var out []source.Diagnostic
	for _, d := range r.Findings {
		if strings.TrimPrefix(d.Check, "vet:") == id {
			out = append(out, d)
		}
	}
	return out
}

// String renders the report, one finding per line:
//
//	file:line:col: severity: message [vet:check]
//
// An empty report renders as "ok: no findings\n".
func (r *Report) String() string {
	if len(r.Findings) == 0 {
		return "ok: no findings\n"
	}
	var b strings.Builder
	for _, d := range r.Findings {
		b.WriteString(Format(d))
		b.WriteByte('\n')
	}
	return b.String()
}

// Format renders one finding in the report's line format.
func Format(d source.Diagnostic) string {
	return fmt.Sprintf("%s:%s: %s: %s [%s]", d.File, d.Pos, d.Severity, d.Msg, d.Check)
}

// Ctx gives passes access to the compiled protocol and the shared facts,
// and collects findings.
type Ctx struct {
	Proto *runtime.Protocol
	IR    *ir.Program
	Sema  *sema.Program

	facts  *facts
	check  string // the running pass's check ID
	report *Report
}

func newCtx(p *runtime.Protocol) *Ctx {
	return &Ctx{
		Proto:  p,
		IR:     p.IR,
		Sema:   p.IR.Sema,
		facts:  computeFacts(p),
		report: &Report{},
	}
}

// Reportf records one finding for the running pass.
func (c *Ctx) Reportf(sev source.Severity, pos source.Pos, format string, args ...any) {
	c.report.Findings = append(c.report.Findings, source.Diagnostic{
		File:     c.facts.file,
		Pos:      pos,
		Msg:      fmt.Sprintf(format, args...),
		Check:    c.check,
		Severity: sev,
	})
}

// statePos returns the best source position for a state: its body, or its
// declaration in the protocol header, or the protocol itself.
func (c *Ctx) statePos(st *sema.StateSym) source.Pos {
	if st.Body != nil {
		return st.Body.Pos()
	}
	if c.Sema.AST != nil && c.Sema.AST.Protocol != nil {
		for _, d := range c.Sema.AST.Protocol.Decls {
			if sd, ok := d.(*ast.StateDecl); ok && sd.Name.Name == st.Name {
				return sd.Pos()
			}
		}
		return c.Sema.AST.Protocol.Pos()
	}
	return source.Pos{}
}

// handlerPos returns the position of a handler's declaration (falling back
// to its first positioned instruction).
func handlerPos(st *sema.StateSym, f *ir.Func) source.Pos {
	for _, h := range st.Handlers {
		if (h.Msg == nil && f.MsgIndex < 0) || (h.Msg != nil && h.Msg.Index == f.MsgIndex) {
			return h.AST.Pos()
		}
	}
	for i := range f.Code {
		if f.Code[i].Pos.IsValid() {
			return f.Code[i].Pos
		}
	}
	return source.Pos{}
}
