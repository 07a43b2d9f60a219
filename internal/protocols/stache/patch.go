package stache

import (
	"fmt"
	"strings"
)

// Patch builds the source of a protocol that extends Stache: Stache's text,
// or a variant of it, edited by the operations below — the vocabulary a
// `protocol X extends Stache` declaration will have to provide. Each
// operation panics, naming the variant and the anchor it could not find,
// when the base no longer contains what it patches: the sources are built
// at start-up, so a drifted anchor stops every program and test instead of
// compiling a different protocol.
type Patch struct {
	variant string // named in every failure
	proto   string // qualifies the state bodies: "state <proto>.Home_RS("
	src     string
}

// Extend starts the variant named variant from base, with its protocol —
// and so the qualifier of every state body — renamed proto.
func Extend(variant, proto, base string) *Patch {
	p := &Patch{variant: variant, proto: "Stache", src: base}
	if proto != p.proto {
		p.Replace("protocol Stache begin", "protocol "+proto+" begin")
		p.src = strings.ReplaceAll(p.src, "state Stache.", "state "+proto+".")
		p.proto = proto
	}
	return p
}

// Source is the patched text.
func (p *Patch) Source() string { return p.src }

// find is the index of anchor at or after from.
func (p *Patch) find(anchor string, from int) int {
	i := strings.Index(p.src[from:], anchor)
	if i < 0 {
		panic(fmt.Sprintf("%s: %q not found", p.variant, anchor))
	}
	return from + i
}

// splice replaces src[from:to] with text.
func (p *Patch) splice(from, to int, text string) *Patch {
	p.src = p.src[:from] + text + p.src[to:]
	return p
}

// body is the index of state's body header.
func (p *Patch) body(state string) int { return p.find("state "+p.proto+"."+state+"(", 0) }

// Replace replaces the first occurrence of old with new.
func (p *Patch) Replace(old, new string) *Patch {
	at := p.find(old, 0)
	return p.splice(at, at+len(old), new)
}

// Declare adds decls at the end of the protocol's declaration block.
func (p *Patch) Declare(decls string) *Patch {
	at := p.find("\nend;", p.find("protocol "+p.proto+" begin", 0)) + 1
	return p.splice(at, at, decls)
}

// Insert adds handlers at the top of state's body.
func (p *Patch) Insert(state, handlers string) *Patch {
	at := p.find("begin", p.body(state)) + len("begin")
	return p.splice(at, at, "\n"+handlers)
}

// InsertBeforeDefault adds handlers just before state's DEFAULT handler.
func (p *Patch) InsertBeforeDefault(state, handlers string) *Patch {
	from := p.body(state)
	at := p.find("  message DEFAULT", from)
	if at > p.find("\nend;\n", from) {
		panic(fmt.Sprintf("%s: state %s has no DEFAULT handler", p.variant, state))
	}
	return p.splice(at, at, handlers+"\n")
}

// Drop removes state: its declaration and its body.
func (p *Patch) Drop(state string) *Patch {
	decl := p.find("\n  state "+state+"(", 0) + 1
	p.splice(decl, p.find("\n", decl)+1, "")
	from := p.body(state)
	return p.splice(from, p.find("\nend;\n", from)+len("\nend;\n"), "")
}
