// Package dot extracts protocol state machines from compiled Teapot
// protocols and renders them as Graphviz DOT — the tool behind the
// reproduction of the paper's Figures 1 and 2 (the idealized non-home and
// home machines, with transient states elided) and Figure 4 (the home
// machine once the intermediate states forced by non-atomic transitions
// are included).
package dot

import (
	"fmt"
	"sort"
	"strings"

	"teapot/internal/ir"
	"teapot/internal/sema"
)

// Options select which part of the machine to render.
type Options struct {
	// Prefix filters states by name prefix ("Cache_" for the non-home
	// side, "Home_" for the home side; empty renders everything).
	Prefix string
	// IncludeTransient keeps the intermediate/subroutine states
	// (Figure 4); when false they are elided and transitions through them
	// are contracted to their eventual targets (Figures 1 and 2).
	IncludeTransient bool
}

// Edge is one transition of the extracted machine.
type Edge struct {
	From, To string
	Label    string // triggering message
}

// Machine is an extracted state machine.
type Machine struct {
	States []string
	Edges  []Edge
}

// Extract walks every handler's IR and records (state, message) → possible
// successor states (targets of SetState and Suspend).
func Extract(p *ir.Program, opts Options) *Machine {
	sp := p.Sema
	include := func(name string) bool {
		if opts.Prefix != "" && !strings.HasPrefix(name, opts.Prefix) {
			return false
		}
		return true
	}
	transient := func(idx int) bool { return sp.States[idx].Transient }

	// Raw edges: state --msg--> target.
	type key struct{ from, to, label string }
	seen := map[key]bool{}
	var edges []Edge
	states := map[string]bool{}

	// contractTargets follows transient states to their eventual
	// non-transient successors (for the idealized figures).
	var reachable func(stateIdx int, depth int) []int
	reachable = func(stateIdx int, depth int) []int {
		if depth > 8 {
			return nil
		}
		var out []int
		for _, f := range p.Funcs {
			if f.StateIndex != stateIdx {
				continue
			}
			for i := range f.Code {
				in := &f.Code[i]
				if in.Op != ir.OpMakeState || !StateIsSet(f, i) {
					continue
				}
				if transient(in.Idx) {
					out = append(out, reachable(in.Idx, depth+1)...)
				} else {
					out = append(out, in.Idx)
				}
			}
		}
		return out
	}

	for _, f := range p.Funcs {
		from := sp.States[f.StateIndex]
		if !include(from.Name) {
			continue
		}
		if !opts.IncludeTransient && from.Transient {
			continue
		}
		states[from.Name] = true
		label := "DEFAULT"
		if f.MsgIndex >= 0 {
			label = sp.Messages[f.MsgIndex].Name
		}
		for i := range f.Code {
			in := &f.Code[i]
			if in.Op != ir.OpMakeState || !StateIsSet(f, i) {
				continue
			}
			targets := []int{in.Idx}
			if !opts.IncludeTransient && transient(in.Idx) {
				targets = reachable(in.Idx, 0)
			}
			for _, tgt := range targets {
				name := sp.States[tgt].Name
				if !include(name) {
					continue
				}
				k := key{from.Name, name, label}
				if seen[k] || name == from.Name {
					continue
				}
				seen[k] = true
				states[name] = true
				edges = append(edges, Edge{From: from.Name, To: name, Label: label})
			}
		}
	}

	m := &Machine{Edges: edges}
	for s := range states {
		m.States = append(m.States, s)
	}
	sort.Strings(m.States)
	sort.Slice(m.Edges, func(i, j int) bool {
		a, b := m.Edges[i], m.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Label < b.Label
	})
	return m
}

// StateIsSet reports whether the MakeState at index i feeds a SetState
// call or a Suspend (i.e., it actually transitions the block, as opposed
// to a state value used in a comparison). It is the one transition rule of
// the static state graph: the DOT extractor and internal/analysis both use
// it.
func StateIsSet(f *ir.Func, i int) bool {
	dst := f.Code[i].Dst
	for j := i + 1; j < len(f.Code); j++ {
		in := &f.Code[j]
		if in.Op == ir.OpSuspend && in.A == dst {
			return true
		}
		if in.Op == ir.OpCall && in.Fn.Builtin == sema.BSetState &&
			len(in.Args) == 2 && in.Args[1] == dst {
			return true
		}
		if in.Def() == dst {
			return false
		}
	}
	return false
}

// Render emits Graphviz DOT for the machine.
func Render(m *Machine, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=LR;\n  node [shape=ellipse, fontname=\"Helvetica\"];\n")
	for _, s := range m.States {
		shape := ""
		if strings.Contains(s, "_To_") || strings.Contains(s, "Await") ||
			strings.Contains(s, "Wait") || strings.Contains(s, "Gather") {
			shape = ", style=dashed"
		}
		fmt.Fprintf(&b, "  %q [label=%q%s];\n", s, s, shape)
	}
	for _, e := range m.Edges {
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.From, e.To, e.Label)
	}
	b.WriteString("}\n")
	return b.String()
}
