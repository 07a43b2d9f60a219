// Package cont implements the continuation transformation and the two
// optimizations the paper describes in §5:
//
//  1. Live-variable analysis: a continuation record saves and restores only
//     registers referenced after the Suspend. Without it (an ablation mode;
//     the paper always enables it), every named parameter and local is
//     saved, as in Figure 10's "Save arg1, arg2, l1, l2 in L".
//
//  2. Constant-continuation optimization (η-contraction after Appel): when
//     exactly one Suspend site in the whole protocol targets a subroutine
//     state, every Resume of that state's CONT parameter sees a statically
//     known continuation, so the resumption is compiled as a direct
//     transfer, and if the continuation additionally saves nothing, no
//     record is ever allocated ("a continuation can be statically allocated
//     and used by all handler invocations").
package cont

import (
	"slices"

	"teapot/internal/ir"
	"teapot/internal/liveness"
)

// Options selects which transformations run.
type Options struct {
	// Liveness trims continuation save sets to live registers. The paper's
	// "unoptimized" configuration still enables this; disabling it is an
	// ablation mode.
	Liveness bool
	// ConstCont enables the constant-continuation optimization.
	ConstCont bool
}

// Unoptimized mirrors the paper's "Teapot Unoptimized" column: liveness on,
// constant continuations off.
var Unoptimized = Options{Liveness: true}

// Optimized mirrors "Teapot Optimized": both analyses on.
var Optimized = Options{Liveness: true, ConstCont: true}

// Transform fills fragment save sets, MakeCont argument lists, and suspend
// site classifications, then (optionally) rewrites constant Resume sites.
// It must run exactly once on a freshly lowered program.
func Transform(p *ir.Program, opts Options) {
	var live liveness.Result // one function's live sets at a time
	for _, f := range p.Funcs {
		transformFunc(f, opts, &live)
	}
	classifySites(p, opts)
}

func transformFunc(f *ir.Func, opts Options, live *liveness.Result) {
	if opts.Liveness {
		live.Analyze(f)
	}
	// The first two handler parameters are, by the delivery convention
	// sema enforces, the block ID and the block's info handle. Both are
	// derivable from the per-block continuation context at resume time,
	// so they are rematerialized rather than saved (the VM restores them
	// from the dispatch context). This is the refinement that lets the
	// common fill-path continuations ("nothing to save but the block
	// identity") be statically allocated, as §5 of the paper describes.
	remat := func(r ir.Reg) bool {
		return f.NumParams >= 2 && (r == f.ParamReg(0) || r == f.ParamReg(1))
	}
	// Compute saved sets per fragment.
	for fi := range f.Frags {
		if fi == 0 {
			continue // fragment 0 is entered by dispatch, not resume
		}
		fr := &f.Frags[fi]
		var regs []ir.Reg
		if opts.Liveness {
			regs = live.LiveAt(fr.Start).Members()
		} else {
			// Save every named register (state params, params, locals),
			// as the naive translation does.
			regs = make([]ir.Reg, f.NumStateParams+f.NumParams+f.NumLocals)
			for i := range regs {
				regs[i] = ir.Reg(i)
			}
		}
		if fr.Saved = slices.DeleteFunc(regs, remat); len(fr.Saved) == 0 {
			fr.Saved = nil
		}
	}
	// Point each MakeCont at its fragment's save set.
	for i := range f.Code {
		in := &f.Code[i]
		if in.Op == ir.OpMakeCont {
			in.Args = f.Frags[in.Idx].Saved
		}
	}
}

// classifySites marks sites as Static (empty save set) and, with ConstCont,
// Constant (unique suspend site for the target state), rewrites Resume
// instructions that can only observe a constant continuation, and decides
// which sites heap-allocate: every one, except under ConstCont a static or
// constant one.
func classifySites(p *ir.Program, opts Options) {
	targets := make(map[int][]*ir.SuspendSite) // state index -> sites
	for _, s := range p.Sites {
		targets[s.TargetState] = append(targets[s.TargetState], s)
		s.Static = len(s.Func.Frags[s.FragIdx].Saved) == 0
		s.Heap = true
	}
	if !opts.ConstCont {
		return
	}
	// A state value can also be constructed outside a Suspend (e.g. a
	// SetState that forwards a continuation it received); such states can
	// observe continuations from arbitrary sites, so they are not
	// constant-continuation targets.
	makeStateCount := make(map[int]int)
	for _, f := range p.Funcs {
		for i := range f.Code {
			if f.Code[i].Op == ir.OpMakeState {
				makeStateCount[f.Code[i].Idx]++
			}
		}
	}
	// Rewrite Resume(C) where C is the unique CONT parameter of a state
	// with a unique suspend site: the resumed code location is static.
	for si, st := range p.Sema.States {
		sites := targets[si]
		if len(sites) != 1 || makeStateCount[si] != 1 {
			continue
		}
		contReg := ir.Reg(st.ContParam())
		if contReg == ir.NoReg {
			continue
		}
		site := sites[0]
		// The continuation must be passed *directly* in the CONT parameter
		// slot at the suspend site for the rewrite to be sound.
		if !contPassedDirectly(site, int(contReg)) {
			continue
		}
		site.Constant = true
		for _, f := range p.Funcs {
			if f.StateIndex != si {
				continue
			}
			for i := range f.Code {
				in := &f.Code[i]
				if in.Op == ir.OpResume && in.A == contReg {
					in.Idx = site.ID
				}
			}
		}
	}
	for _, s := range p.Sites {
		s.Heap = !s.Static && !s.Constant
	}
}

// contPassedDirectly checks that the suspend site's MakeState passes the
// freshly made continuation in the given parameter slot.
func contPassedDirectly(site *ir.SuspendSite, slot int) bool {
	f := site.Func
	// Find the OpSuspend ending the fragment before site.FragIdx; the
	// MakeState feeding it is the preceding instruction, and the MakeCont
	// for this site precedes the argument evaluation.
	suspendAt := f.Frags[site.FragIdx].Start - 1
	if suspendAt < 1 || f.Code[suspendAt].Op != ir.OpSuspend {
		return false
	}
	ms := f.Code[suspendAt-1]
	if ms.Op != ir.OpMakeState || slot >= len(ms.Args) {
		return false
	}
	// Walk back to the MakeCont that created this site's continuation.
	for i := suspendAt - 2; i >= 0; i-- {
		in := f.Code[i]
		if in.Op == ir.OpMakeCont && in.Idx == site.FragIdx {
			return ms.Args[slot] == in.Dst
		}
		if in.Op == ir.OpSuspend {
			break
		}
	}
	return false
}

// Stats summarizes the transformation for reporting (§6's discussion of
// allocation counts).
type Stats struct {
	Sites    int
	Static   int // sites whose one record serves every activation
	Constant int // other sites whose record is not heap-allocated
	Dynamic  int // heap-allocating sites
	MaxSaved int
}

// Summarize computes transformation statistics for a program.
func Summarize(p *ir.Program) Stats {
	var st Stats
	st.Sites = len(p.Sites)
	for _, s := range p.Sites {
		saved := len(s.Func.Frags[s.FragIdx].Saved)
		if saved > st.MaxSaved {
			st.MaxSaved = saved
		}
		switch {
		case s.Heap:
			st.Dynamic++
		case s.Static:
			st.Static++
		default:
			st.Constant++
		}
	}
	return st
}
