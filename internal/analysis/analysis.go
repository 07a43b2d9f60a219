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

// Pass is one static analysis. Run inspects the compiled protocol through
// the Ctx and reports findings; it must be deterministic.
type Pass struct {
	ID  string // stable check ID without the "vet:" prefix
	Doc string // one-line description
	Run func(*Ctx)
}

// Passes is the registered suite, in a fixed order.
var Passes = []*Pass{
	{ID: "coverage", Doc: "every (state, message) pair has a handler or an explicit policy", Run: runCoverage},
	{ID: "unreachable", Doc: "every state is reachable from the configured start states", Run: runReachability},
	{ID: "no-exit", Doc: "transient states have an outgoing transition or Resume", Run: runNoExit},
	{ID: "cont-leak", Doc: "subroutine states never drop their continuation on a transition", Run: runContLeak},
	{ID: "cont-stuck", Doc: "subroutine states can resume or forward their continuation", Run: runContStuck},
	{ID: "queue-stuck", Doc: "states that Enqueue have a handler that transitions", Run: runQueueStuck},
	{ID: "defer-deadlock", Doc: "synchronously answered requests are not deferred on the answering side", Run: runDeferDeadlock},
	{ID: "dead-store", Doc: "no pure instruction computes a value that is never used", Run: runDeadStore},
	{ID: "unassigned", Doc: "no register is read before any path writes it", Run: runUnassigned},
	{ID: "cont-alloc", Doc: "heap continuation records do not save only rematerializable constants", Run: runCostLint},
	{ID: "timeout", Doc: "transient states of a TIMEOUT-declaring protocol have explicit TIMEOUT handlers", Run: runTimeout},
	{ID: "symmetry", Doc: "handlers are equivariant under node and block permutations (refutations, advisory)", Run: runSymmetry},
	{ID: "dup-idempotence", Doc: "handlers of droppable protocols are idempotent under duplicated delivery (advisory)", Run: runDupIdempotence},
}

// Report is the outcome of a vet run: findings sorted by file, position,
// check ID, and message.
type Report struct {
	Findings []source.Diagnostic
}

// Analyze runs every registered pass over a compiled protocol and returns
// the sorted report.
func Analyze(p *runtime.Protocol) *Report {
	r, err := Run(p, nil)
	if err != nil {
		panic(err) // unreachable: nil selection never fails
	}
	return r
}

// Run executes the selected passes (nil or empty = all) and returns the
// sorted report. Unknown pass IDs are an error.
func Run(p *runtime.Protocol, ids []string) (*Report, error) {
	selected := Passes
	if len(ids) > 0 {
		byID := make(map[string]*Pass, len(Passes))
		for _, ps := range Passes {
			byID[ps.ID] = ps
		}
		selected = nil
		for _, id := range ids {
			ps, ok := byID[strings.TrimPrefix(id, "vet:")]
			if !ok {
				return nil, fmt.Errorf("unknown vet pass %q", id)
			}
			selected = append(selected, ps)
		}
	}
	c := newCtx(p)
	for _, ps := range selected {
		c.pass = ps
		ps.Run(c)
	}
	source.SortDiagnostics(c.report.Findings)
	return c.report, nil
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
	pass   *Pass
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
		Check:    "vet:" + c.pass.ID,
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
