package analysis

import (
	"teapot/internal/source"
)

// runTimeout checks the fault-tolerance contract between a protocol and
// the runtimes' timeout machinery. Both the model checker and the Tempest
// simulator fire the TIMEOUT pseudo-message only for a block whose current
// state declares an *explicit* TIMEOUT handler (a DEFAULT does not count:
// it cannot know which request to retransmit). A transient state waits for
// a network message to make progress, and on a lossy network that message
// may never arrive — so a fault-tolerant protocol must give every reachable
// transient state a TIMEOUT handler, or a single drop stalls the block
// forever with no timer armed.
//
// For protocols that declare TIMEOUT, each uncovered reachable transient
// state is a warning. For protocols that do not, the pass reports one
// advisory (info) finding counting the states that would stall, so the
// bundled fault-intolerant protocols stay actionable-clean while the gap
// is still visible in a full report.
func runTimeout(c *Ctx) {
	var waiting []int
	for si, st := range c.Sema.States {
		if st.Transient && c.facts.reach[si] {
			waiting = append(waiting, si)
		}
	}
	if len(waiting) == 0 {
		return
	}

	tt := c.Proto.MsgIndex("TIMEOUT")
	if tt < 0 {
		pos := source.Pos{}
		if c.Sema.AST != nil && c.Sema.AST.Protocol != nil {
			pos = c.Sema.AST.Protocol.Pos()
		}
		c.Reportf(source.SevInfo, pos,
			"protocol declares no TIMEOUT message: %d transient state(s) block on a message the network may drop (teapot verify -net drop=1 shows the stall)",
			len(waiting))
		return
	}
	for _, si := range waiting {
		if c.IR.HandlerFunc[si][tt] != nil {
			continue
		}
		st := c.Sema.States[si]
		c.Reportf(source.SevWarning, c.statePos(st),
			"transient state %s blocks on a droppable message but has no explicit TIMEOUT handler: timers only arm in states that declare one, so a lost message stalls the block forever",
			st.Name)
	}
}
