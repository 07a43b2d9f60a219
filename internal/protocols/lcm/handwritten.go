package lcm

import (
	"teapot/internal/protocols/hw"
	"teapot/internal/runtime"
)

// NewHW builds the hand-written state-machine implementation of base LCM —
// the "C State Machine" column of Table 2: the Stache baseline plus the rows
// LCM adds (internal/protocols/hw).
func NewHW(p *runtime.Protocol, nodes, blocks int, m runtime.Machine) *hw.Engine {
	return hw.NewLCM(p, nodes, blocks, m)
}
