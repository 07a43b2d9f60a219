package stache

import (
	"teapot/internal/protocols/hw"
	"teapot/internal/runtime"
)

// NewHW builds the hand-written state-machine implementation of Stache —
// the paper's "C State Machine" baseline in Table 1 (internal/protocols/hw).
func NewHW(p *runtime.Protocol, nodes, blocks int, m runtime.Machine) *hw.Engine {
	return hw.NewStache(p, nodes, blocks, m)
}
