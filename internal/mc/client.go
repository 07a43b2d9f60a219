package mc

import (
	"fmt"
	"math"

	"teapot/internal/runtime"
	"teapot/internal/tempest"
)

// Scripted-client plane: litmus workloads drive the checker with the same
// per-node operation scripts the simulator runs, so one .lit scenario is
// explored exhaustively (every interleaving of client steps, deliveries,
// and faults) and its terminal states are judged against the simulator's
// observed outcomes. The scripts are tempest.Ops and the processor model is
// tempest's own, called from here: an operation the node's access mode
// satisfies (tempest.AccessOK) completes immediately; otherwise it raises
// the event tempest's EventTags.FaultTag names and stalls the node until
// the protocol's WakeUp, which completes it when tempest.WakeCompletes says
// so. Block contents are tempest's packed version words (StoreWord), so
// data messages, the monotone stale-discard rule, and the oracle all behave
// identically.
//
// Everything here is gated on Config.Client: without one, worlds carry no
// client state, encodings are byte-identical to previous releases, and
// RecvDataMsg degrades to the plain access change RecvData makes.

// Client is a scripted workload for the checker: one operation sequence
// per node (reads, writes and CASes; a read or CAS records the value it
// observed), plus initial block values. Build with NewClient.
type Client struct {
	Programs [][]tempest.Op
	InitMem  []int64 // raw initial value per block (version 0)

	tags tempest.EventTags
}

// clientOpNames are the script operations, as counterexample traces print
// them.
var clientOpNames = map[tempest.OpKind]string{
	tempest.OpRead: "get", tempest.OpWrite: "put", tempest.OpCAS: "cas",
}

// NewClient builds a Client for proto, refusing a script the plane cannot
// run: an operation that is not a read, write or CAS, a store value outside
// the 32-bit value lane of the packed words, or a fault event the protocol
// does not declare (RD_FAULT for reads, WR_FAULT for writes and CASes).
// What depends on the machine size is checked when the client meets its
// Config (see Config.validate).
func NewClient(proto *runtime.Protocol, programs [][]tempest.Op, initMem []int64) (*Client, error) {
	c := &Client{Programs: programs, InitMem: initMem, tags: tempest.ResolveTags(proto)}
	for n, prog := range programs {
		for i, op := range prog {
			name, ok := clientOpNames[op.Kind]
			switch {
			case !ok:
				return nil, fmt.Errorf("mc: client script node %d op %d: kind %d is not a read, write or CAS", n, i, op.Kind)
			case op.Kind == tempest.OpRead:
				if c.tags.ReadFault < 0 {
					return nil, fmt.Errorf("mc: client script node %d op %d (%s) reads but protocol declares no RD_FAULT", n, i, name)
				}
			case op.Val < 0 || op.Val > math.MaxUint32:
				return nil, fmt.Errorf("mc: client script node %d op %d (%s): store value %d outside the 32-bit value lane", n, i, name, op.Val)
			case c.tags.WriteFault < 0:
				return nil, fmt.Errorf("mc: client script node %d op %d (%s) writes but protocol declares no WR_FAULT", n, i, name)
			}
		}
	}
	return c, nil
}

// fits refuses a script written for a larger machine than the one it is
// attached to.
func (c *Client) fits(nodes, blocks int) error {
	if len(c.Programs) > nodes {
		return fmt.Errorf("mc: client script has programs for %d nodes, machine has %d", len(c.Programs), nodes)
	}
	for n, prog := range c.Programs {
		for i, op := range prog {
			if op.Addr < 0 || op.Addr >= blocks {
				return fmt.Errorf("mc: client script node %d op %d (%s): block %d outside [0,%d)", n, i, clientOpNames[op.Kind], op.Addr, blocks)
			}
		}
	}
	return nil
}

// program returns node's script (empty when the script declares fewer
// nodes than the machine has).
func (c *Client) program(node int) []tempest.Op {
	if node >= len(c.Programs) {
		return nil
	}
	return c.Programs[node]
}

// initClient installs the client plane on a fresh world.
func (w *World) initClient(c *Client) {
	nodes, blocks := w.cfg.Nodes, w.cfg.Blocks
	w.pcs = make([]int, nodes)
	w.regs = make([][]int64, nodes)
	w.cver = make([]int64, blocks)
	w.cmem = make([]int64, nodes*blocks)
	for b, v := range c.InitMem {
		if b >= blocks {
			break
		}
		for n := 0; n < nodes; n++ {
			w.cmem[n*blocks+b] = tempest.PackVal(0, v)
		}
	}
}

// clientComplete performs node's current operation (the access mode has
// already been checked) and advances its program counter.
func (w *World) clientComplete(node int, op tempest.Op) {
	observed := w.cmem[node*w.cfg.Blocks+op.Addr]
	if op.Kind != tempest.OpWrite {
		w.regs[node] = append(w.regs[node], observed)
	}
	if op.Kind == tempest.OpWrite || (op.Kind == tempest.OpCAS && tempest.ValueOf(observed) == op.Expect) {
		w.cver[op.Addr]++
		w.cmem[node*w.cfg.Blocks+op.Addr] = tempest.StoreWord(w.cver[op.Addr], op.Val)
	}
	w.pcs[node]++
}

// clientStep attempts node's next scripted operation: complete it if the
// node's access mode allows, otherwise raise the matching fault event and
// stall the node (the protocol's WakeUp resumes it via clientWake).
func (w *World) clientStep(node int) error {
	c := w.cfg.Client
	op := c.program(node)[w.pcs[node]]
	acc := w.Access(node, op.Addr)
	if tempest.AccessOK(op.Kind, acc) {
		w.clientComplete(node, op)
		return nil
	}
	tag := c.tags.FaultTag(op.Kind, acc)
	if tag < 0 {
		return fmt.Errorf("mc: no fault event for client op %s under access %v", clientOpNames[op.Kind], acc)
	}
	w.stalled[node] = op.Addr
	if err := w.engines[node].InjectEvent(tag, op.Addr); err != nil {
		return err
	}
	return w.sendErr
}

// clientWake re-attempts the faulted operation when the protocol wakes the
// stalled node, as tempest's WakeUp does (tempest.WakeCompletes). If the
// wakeup leaves the access unsatisfied the program counter stays put and
// the operation refaults on its next client action.
func (w *World) clientWake(node, id int) {
	if w.pcs == nil {
		return
	}
	prog := w.cfg.Client.program(node)
	if w.pcs[node] >= len(prog) {
		return
	}
	op := prog[w.pcs[node]]
	if op.Addr == id && tempest.WakeCompletes(op.Kind, w.Access(node, id)) {
		w.clientComplete(node, op)
	}
}

// ClientDone reports whether every node has finished its script (false
// when no client is attached).
func (w *World) ClientDone() bool {
	if w.pcs == nil {
		return false
	}
	for n, pc := range w.pcs {
		if pc < len(w.cfg.Client.program(n)) {
			return false
		}
	}
	return true
}

// ClientRegs returns each node's observed values (gets and CASes, in
// program order), as packed version words.
func (w *World) ClientRegs() [][]int64 {
	out := make([][]int64, len(w.regs))
	for n, r := range w.regs {
		out[n] = append([]int64(nil), r...)
	}
	return out
}

// ClientFinal returns the final packed value of each block: the newest
// copy any node holds, which is the value of the block's latest completed
// store (copies only ever move forward, so the writer's own copy is the
// maximum until newer data displaces it).
func (w *World) ClientFinal() []int64 {
	out := make([]int64, w.cfg.Blocks)
	for b := 0; b < w.cfg.Blocks; b++ {
		max := int64(0)
		for n := 0; n < w.cfg.Nodes; n++ {
			if v := w.cmem[n*w.cfg.Blocks+b]; v > max {
				max = v
			}
		}
		out[b] = max
	}
	return out
}
