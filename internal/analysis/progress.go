package analysis

import (
	"slices"
	"sort"
	"strings"

	"teapot/internal/ir"
	"teapot/internal/source"
)

// Progress checks: the deferred-queue discipline (§2/§3) only retries
// queued messages after the state transitions, and a deferred request is
// only safe to hold if the holder is guaranteed to move on. These passes
// catch the two static failure shapes.

// runQueueStuck flags states that Enqueue (explicitly or via DEFAULT) but
// have no handler that ever transitions (SetState or Suspend, including
// self-transitions, which also retry the queue) and no Resume: the deferred
// queue can never drain, so every enqueued message is lost and its sender
// potentially stuck.
func runQueueStuck(c *Ctx) {
	for si, st := range c.Sema.States {
		if !c.facts.enqueues[si] || !c.facts.reach[si] {
			continue
		}
		if c.facts.transitions[si] || c.facts.hasResume[si] {
			continue
		}
		c.Reportf(source.SevWarning, c.statePos(st),
			"state %s enqueues messages but no handler transitions or resumes: the deferred queue never drains",
			st.Name)
	}
}

// runDeferDeadlock detects the §7 Stache bug class statically: a request
// message that every dedicated handler answers synchronously (each one
// sends the same reply before finishing or suspending), deferred by a state
// on the answering side. While the request sits in the deferred queue the
// requester — suspended in a subroutine state awaiting the reply — cannot
// make progress, and if the deferring state's own exit depends on the
// requester, the protocol deadlocks. The seeded Stache variant's missing
// PUT_NO_DATA_REQ handler in Cache_RO_To_RW is exactly this shape, and the
// model checker's counterexample (home awaiting PUT_NO_DATA_RESP, cache
// awaiting UPGRADE_ACK) is its dynamic witness.
//
// A message M qualifies as a synchronously answered request when:
//   - it has at least two dedicated handlers, all on one side of the
//     protocol (home or cache, per reachability from the start states),
//     and the intersection of the replies those handlers send on every
//     path is non-empty; and
//   - some reply in that intersection really unblocks a suspended peer:
//     an opposite-side subroutine state (CONT parameter) handles it with
//     a Resume.
//
// A same-side state S whose DEFAULT enqueues M is then flagged when both:
//   - some direct predecessor of S has a dedicated M handler, so M can
//     plausibly arrive while the block sits in S (a racing message does
//     not notice the transition); and
//   - S's own unblocking is not already guaranteed: no fragment that
//     sends a message X whose handler suspends into S also always-sends
//     one of S's dedicated messages (if it did, S's wake-up would be in
//     flight before S is ever entered, as with LCM's BEGIN_LCM chasing
//     the PUT_ACCUM).
func runDeferDeadlock(c *Ctx) {
	for mi, msg := range c.Sema.Messages {
		handlers := 0
		handlerSide := sideNone
		var replies tagSet // ⊤ as nil before the first handler
		sidesAgree := true
		for si := range c.Sema.States {
			fn := c.IR.HandlerFunc[si][mi]
			if fn == nil {
				continue
			}
			handlers++
			s := c.facts.sides[si]
			switch {
			case handlerSide == sideNone:
				handlerSide = s
			case handlerSide != s:
				sidesAgree = false
			}
			if sent := c.facts.alwaysSends[fn]; replies == nil {
				replies = slices.Clone(sent)
			} else {
				for w := range replies {
					replies[w] &= sent[w]
				}
			}
		}
		if handlers < 2 || !sidesAgree || handlerSide == sideBoth || handlerSide == sideNone || replies.empty() {
			continue
		}
		if !replyAwaited(c, replies, handlerSide) {
			continue
		}
		reply := describeTags(c, replies)
		for si, st := range c.Sema.States {
			if c.facts.sides[si] != handlerSide || !c.facts.reach[si] {
				continue
			}
			if c.facts.policies[si][mi] != polDefer {
				continue
			}
			if !predHandles(c, si, mi) || wakeUpInFlight(c, si) {
				continue
			}
			c.Reportf(source.SevWarning, c.statePos(st),
				"state %s defers %s via DEFAULT Enqueue, but all %d dedicated handlers answer it with %s immediately: a peer suspended awaiting the reply can wait forever",
				st.Name, msg.Name, handlers, reply)
		}
	}
}

// replyAwaited reports whether some reply tag is handled, on the opposite
// side, by a subroutine state's dedicated handler containing a Resume —
// the static signature of a requester suspended for the answer.
func replyAwaited(c *Ctx, replies tagSet, handlerSide side) bool {
	for si := range c.Sema.States {
		s := c.facts.sides[si]
		if s == handlerSide || s == sideNone || c.facts.contReg[si] == ir.NoReg {
			continue
		}
		for ri := range c.Sema.Messages {
			if !replies.has(ri) {
				continue
			}
			fn := c.IR.HandlerFunc[si][ri]
			if fn == nil {
				continue
			}
			for i := range fn.Code {
				if fn.Code[i].Op == ir.OpResume {
					return true
				}
			}
		}
	}
	return false
}

// predHandles reports whether a direct predecessor of state si has a
// dedicated handler for message mi.
func predHandles(c *Ctx, si, mi int) bool {
	for _, p := range c.facts.preds[si] {
		if c.facts.policies[p][mi] == polExplicit {
			return true
		}
	}
	return false
}

// wakeUpInFlight reports whether entering state si guarantees one of its
// dedicated messages is already on the wire: some handler message X
// suspends into si, and some fragment that always-sends X also
// always-sends a message si handles dedicatedly.
func wakeUpInFlight(c *Ctx, si int) bool {
	for _, xi := range c.facts.suspendIn[si] {
		if xi < 0 {
			continue
		}
		for _, fn := range c.IR.Funcs {
			sent := c.facts.alwaysSends[fn]
			if !sent.has(xi) {
				continue
			}
			for ui := range c.Sema.Messages {
				if sent.has(ui) && c.facts.policies[si][ui] == polExplicit {
					return true
				}
			}
		}
	}
	return false
}

// describeTags renders a reply-tag set as sorted message names.
func describeTags(c *Ctx, tags tagSet) string {
	var names []string
	for t, m := range c.Sema.Messages {
		if tags.has(t) {
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, "+")
}
