package mc

import (
	"fmt"

	"teapot/internal/analysis"
	"teapot/internal/runtime"
)

// Certificate-gated symmetry reduction.
//
// A symmetric protocol cannot tell node 1 from node 2 (or block 0 from
// block 1), so the reachable graph decomposes into permutation orbits and
// the checker only needs one representative per orbit. Soundness never
// rests on an mc heuristic: reduction turns on only when
//
//   - the static prover (internal/analysis.ProveSymmetry) certifies both
//     dimensions over the compiled IR,
//   - every support routine the IR calls is vouched equivariant by the
//     support module itself (runtime.SymmetryDecl), with its node-bitmask
//     variable slots declared so canonicalization can re-index them, and
//   - the event generator declares equivariance (EquivariantEvents).
//
// The admissible group is {(π over nodes, σ over blocks) : π(home(b)) =
// home(σ(b)) for all b}, home being runtime.HomeOf — home bindings are the
// machine's, not state, so a permutation must map homes onto homes.
// Canonicalization encodes the world under every group element and keeps
// the lexicographically smallest key. Which element won is not kept:
// counterexample traces are replayed in original coordinates, each step the
// first whose successor canonicalizes to the next stored key (see
// buildViolation), so no group algebra is ever needed.
//
// No permuted world is ever built. A group element is a runtime.Remap the
// encoder applies as it writes (World.encodeTo): the one walk that produces
// the plain key produces, under a remap, the key of the permuted world.
// Candidates go into a worker's two scratch buffers and lose early — a
// candidate whose prefix already exceeds the best key so far is abandoned
// at the next engine boundary — so a transition costs one plain encode (of
// the segments its action touched: World.encodeTo) plus a fraction of a full
// one per further group element, and allocates nothing.
// What the remap must touch, and the reference implementation it is tested
// against (permuteWorld), are in symmetry_internal_test.go.

// SymmetryMode selects the reduction policy for a run.
type SymmetryMode int

// Symmetry modes. The zero value is off so existing configurations are
// untouched byte for byte.
const (
	// SymmetryOff never reduces.
	SymmetryOff SymmetryMode = iota
	// SymmetryAuto reduces when the certificate and vouches allow it and
	// silently runs unreduced otherwise (Result.SymmetryNote says why).
	SymmetryAuto
	// SymmetryOn requires reduction: configuration fails with an error
	// naming the first refutation witness or missing vouch otherwise.
	SymmetryOn
)

func (m SymmetryMode) String() string {
	switch m {
	case SymmetryOff:
		return "off"
	case SymmetryAuto:
		return "auto"
	case SymmetryOn:
		return "on"
	}
	return fmt.Sprintf("symmetry(%d)", int(m))
}

// ParseSymmetryMode parses the -symmetry flag values.
func ParseSymmetryMode(s string) (SymmetryMode, error) {
	switch s {
	case "off":
		return SymmetryOff, nil
	case "auto":
		return SymmetryAuto, nil
	case "on":
		return SymmetryOn, nil
	}
	return SymmetryOff, fmt.Errorf("unknown symmetry mode %q (want auto, off, or on)", s)
}

// EquivariantEvents marks event generators whose Enabled output commutes
// with node/block permutation of the world: permuting the world permutes
// the enabled events and changes nothing else. All bundled generators
// qualify (they observe only state names, access modes, per-block
// counters, and message predicates); the marker makes that an explicit
// promise the reduction gate can check.
type EquivariantEvents interface {
	SymmetricEvents()
}

// maxSymmetryDim bounds permutation-group enumeration (dim! each way).
const maxSymmetryDim = 8

// maxAutoGroupOrder bounds the group SymmetryAuto will reduce by. A
// transition pays one full encode plus a partial one per further group
// element, so per-transition cost grows linearly in |G| while the orbits
// only thin out by |G| deep into a run. Measured on base Stache and LCM
// Simple, state-capped, at the deepest layer both runs finished: up to
// order 120 a reduced run reaches a given depth in under a fifth of the
// unreduced time at 3.5–5.3× the cost per transition; at 240–720 the cost
// is 10–43× and shallow prefixes break even at best; from 1440 up
// reduction loses outright. SymmetryOn is the caller asking for the group whatever its
// order.
const maxAutoGroupOrder = 120

// perm is one admissible group element.
type perm struct {
	node []int // node n appears as node[n] in the permuted world
	blk  []int // block b appears as blk[b]
}

func (g *perm) identity() bool {
	for i, v := range g.node {
		if v != i {
			return false
		}
	}
	for i, v := range g.blk {
		if v != i {
			return false
		}
	}
	return true
}

// reduction is the active symmetry machinery for one run.
type reduction struct {
	group []*perm // identity first, then enumeration order
	// remaps[i] is group[i] as the encoder applies it, inverses
	// precomputed; remaps[0] is nil (the identity encodes plainly).
	remaps []*runtime.Remap
}

// keyScratch is one worker's pair of reusable key buffers: best holds the
// smallest encoding so far, cand the challenger, and they swap when a
// challenger wins. Keys returned from it are valid until its next use.
// encoded is how many bytes the last key cost to encode (see
// Result.KeyBytesEncoded).
type keyScratch struct {
	best, cand keyBuf
	encoded    int
}

// key encodes w into the scratch — canonicalized when red is non-nil —
// and returns the buffer holding the visited-set key, with its segments
// (keyBuf). via is the action that derived w from the state it was decoded
// from (nil: encode all of it); only the plain encoding can use it
// (World.encodeVia), the remapped challengers stream every byte.
func (sc *keyScratch) key(w *World, red *reduction, via *action) (*keyBuf, error) {
	kb, err := sc.plain(w, via, nil)
	if err == nil && red != nil {
		err = red.canonicalize(w, sc)
	}
	return kb, err
}

// plain is key without the canonicalization: the plain encoding of w, with
// hit, if set, writing what via changed (World.encodeVia).
func (sc *keyScratch) plain(w *World, via *action, hit *memoHit) (*keyBuf, error) {
	sc.best.Reset(nil)
	var copied int
	var err error
	if via != nil {
		copied, err = w.encodeVia(&sc.best, via, hit)
	} else {
		_, err = w.encodeTo(&sc.best, nil)
	}
	sc.encoded = len(sc.best.Bytes()) - copied
	return &sc.best, err
}

// buildReduction decides whether reduction is enabled for this
// configuration. It returns (nil, reason, nil) to run unreduced — always
// fine under SymmetryAuto — and an error under SymmetryOn, which demands
// reduction or an explanation loud enough to stop the run.
func buildReduction(cfg *Config) (*reduction, string, error) {
	refuse := func(format string, args ...any) (*reduction, string, error) {
		reason := fmt.Sprintf(format, args...)
		if cfg.Symmetry == SymmetryOn {
			return nil, "", fmt.Errorf("mc: -symmetry=on but %s", reason)
		}
		return nil, reason, nil
	}
	if cfg.Symmetry == SymmetryOff {
		return nil, "", nil
	}
	if cfg.Client != nil {
		return refuse("a scripted litmus client pins node and block identities")
	}
	if cfg.Nodes > maxSymmetryDim || cfg.Blocks > maxSymmetryDim {
		return refuse("%d nodes / %d blocks exceeds the permutation enumeration bound (%d)",
			cfg.Nodes, cfg.Blocks, maxSymmetryDim)
	}
	cert := analysis.ProveSymmetry(cfg.Proto)
	for _, dim := range []struct {
		name string
		d    *analysis.SymmetryDim
	}{{"node", &cert.Node}, {"block", &cert.Block}} {
		if !dim.d.Equivariant {
			w := dim.d.Witnesses[0]
			return refuse("the static prover refutes %s symmetry: handler %s, %s (instr %d: %s)",
				dim.name, w.Handler, w.Reason, w.Index, w.Instr)
		}
	}
	var maskSlots []int
	if len(cert.Obligations) > 0 {
		decl, ok := cfg.Support.(runtime.SymmetryDecl)
		if !ok {
			return refuse("support module does not declare routine equivariance (runtime.SymmetryDecl)")
		}
		vouched := map[string]bool{}
		for _, r := range decl.EquivariantRoutines() {
			vouched[r] = true
		}
		for _, ob := range cert.Obligations {
			if !vouched[ob.Routine] {
				return refuse("support routine %s is not vouched equivariant", ob.Routine)
			}
		}
		maskSlots = decl.NodeMaskSlots()
	}
	if cfg.Events != nil {
		if _, ok := cfg.Events.(EquivariantEvents); !ok {
			return refuse("event generator does not declare equivariance (mc.EquivariantEvents)")
		}
	}
	group := enumerateGroup(cfg)
	if cfg.Symmetry == SymmetryAuto && len(group) > maxAutoGroupOrder {
		return refuse("the symmetry group of %d nodes / %d blocks has order %d, above the %d that -symmetry=auto reduces by (every transition would pay for up to %d encodes; -symmetry=on overrides)",
			cfg.Nodes, cfg.Blocks, len(group), maxAutoGroupOrder, len(group))
	}
	red := &reduction{group: group, remaps: make([]*runtime.Remap, len(group))}
	for i := 1; i < len(group); i++ {
		red.remaps[i] = runtime.NewRemap(group[i].node, group[i].blk, maskSlots)
	}
	return red, "", nil
}

// enumerateGroup lists the admissible (node, block) permutation pairs,
// identity first: every (π, σ) with π(home(b)) = home(σ(b)) for all b, in
// lexicographic order of σ and then of π. σ fixes π on the home nodes (or
// rules itself out by asking one home for two images), and homes map onto
// homes, so only the non-home nodes are permuted among themselves — the
// enumeration never visits an inadmissible pair.
func enumerateGroup(cfg *Config) []*perm {
	isHome := make([]bool, cfg.Nodes)
	for b := 0; b < cfg.Blocks; b++ {
		isHome[runtime.HomeOf(b, cfg.Nodes)] = true
	}
	var free []int // non-home nodes, ascending
	for n, h := range isHome {
		if !h {
			free = append(free, n)
		}
	}
	freePerms := permutations(len(free))
	var group []*perm
sigmas:
	for _, sigma := range permutations(cfg.Blocks) {
		pi := make([]int, cfg.Nodes)
		for i := range pi {
			pi[i] = -1
		}
		taken := make([]bool, cfg.Nodes)
		for b := 0; b < cfg.Blocks; b++ {
			h, img := runtime.HomeOf(b, cfg.Nodes), runtime.HomeOf(sigma[b], cfg.Nodes)
			switch {
			case pi[h] == img:
			case pi[h] >= 0 || taken[img]:
				continue sigmas // π would not be a well-defined bijection
			default:
				pi[h], taken[img] = img, true
			}
		}
		// Home positions are the same in every π for this σ, so ordering
		// the free positions lexicographically orders the whole of π.
		for _, fp := range freePerms {
			full := append([]int(nil), pi...)
			for i, n := range free {
				full[n] = free[fp[i]]
			}
			group = append(group, &perm{node: full, blk: sigma})
		}
	}
	// Lexicographic enumeration puts the identity pair first already;
	// assert rather than assume, since canonicalize short-circuits on it.
	if len(group) == 0 || !group[0].identity() {
		panic("mc: symmetry group enumeration lost the identity")
	}
	return group
}

// permutations returns all permutations of 0..n-1 in lexicographic order.
func permutations(n int) [][]int {
	var out [][]int
	cur := make([]int, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := range used {
			if !used[v] {
				used[v] = true
				cur = append(cur, v)
				rec()
				cur = cur[:len(cur)-1]
				used[v] = false
			}
		}
	}
	rec()
	return out
}

// canonicalize takes sc.best, holding the plain encoding of w, to the
// lexicographically smallest encoding of w over the group. Each challenger
// is a remapped encode of w itself that gives up once it can no longer win.
func (r *reduction) canonicalize(w *World, sc *keyScratch) error {
	for i := 1; i < len(r.remaps); i++ {
		sc.cand.Reset(r.remaps[i])
		smaller, err := w.encodeTo(&sc.cand, sc.best.Bytes())
		sc.encoded += len(sc.cand.Bytes())
		if err != nil {
			return err
		}
		if smaller {
			sc.best, sc.cand = sc.cand, sc.best
		}
	}
	return nil
}
