// Package runtime executes compiled Teapot protocols: it owns per-block
// protocol state on one node, dispatches protocol events (access faults and
// incoming messages) to handlers, implements the Suspend/Resume and
// deferred-queue disciplines, and routes Tempest-style effects to the
// machine substrate (the simulator or the model checker).
package runtime

import (
	"fmt"

	"teapot/internal/ir"
	"teapot/internal/obs"
	"teapot/internal/sema"
	"teapot/internal/vm"
)

// Message is a protocol message (or a locally generated protocol event such
// as an access fault, which the paper also treats as a protocol event
// dispatched through the same automaton).
type Message struct {
	Tag     int // message index in the protocol
	ID      int // block the message concerns
	Src     int // sending node
	Payload []vm.Value
	Data    bool // message carries the block's data

	// Val is the modeled data value a data-carrying message transports
	// (stamped by machines that model block contents — the Tempest machine
	// under sim.Config.ObsMemory, and the checker's World when a scripted
	// litmus client is attached). Never read by protocol code, but part of
	// the canonical encoding: two checker states whose in-flight data
	// messages carry different values are different states.
	Val int64

	// flow correlates a Send event with the Deliver of the same message in
	// an observability trace. Assigned only while a sink is attached; not
	// part of the canonical encoding.
	flow int64
}

// Flow returns the message's observability flow id (0 when no sink was
// attached at send time). Machines that inject network faults use it to
// emit Drop/Dup events that correlate with the original Send.
func (m *Message) Flow() int64 { return m.flow }

// Protocol is a compiled protocol plus execution options, shared by all
// engines (one per node).
type Protocol struct {
	IR *ir.Program

	// Initial states for blocks on their home node and elsewhere.
	HomeStart  int
	CacheStart int
}

// Sema returns the semantic model.
func (p *Protocol) Sema() *sema.Program { return p.IR.Sema }

// MsgIndex resolves a message name, or -1.
func (p *Protocol) MsgIndex(name string) int {
	if m := p.IR.Sema.MessageByName(name); m != nil {
		return m.Index
	}
	return -1
}

// StateIndex resolves a state name, or -1.
func (p *Protocol) StateIndex(name string) int {
	if s := p.IR.Sema.StateByName(name); s != nil {
		return s.Index
	}
	return -1
}

// Machine is the substrate an engine runs against.
type Machine interface {
	// Send transmits a message from this node.
	Send(from int, dst int, m *Message)
	// AccessChange updates fine-grain access control for (node, block).
	AccessChange(node, id int, mode sema.AccessMode)
	// RecvData installs the current message's data into local memory.
	RecvData(node, id int, mode sema.AccessMode)
	// WakeUp unstalls the processor waiting on block id.
	WakeUp(node, id int)
	// HomeNode returns the home node of a block.
	HomeNode(id int) int
	// Print emits protocol debug output.
	Print(node int, s string)
}

// HomeOf is the home rule of every machine in the tree: block id lives on
// node id mod nodes. The simulator's and the checker's HomeNode, their
// initial access maps (a block starts read-write at its home), the
// checker's symmetry group and the oracle all call it, so they cannot
// disagree on where a block lives.
func HomeOf(id, nodes int) int { return id % nodes }

// TimeoutArmer is the optional machine extension behind runtime timeouts.
// A protocol opts into timeout recovery by declaring a TIMEOUT message and
// handling it explicitly in the states that wait on droppable replies; the
// engine then keeps a per-block timer armed exactly while the block sits in
// such a state. When the timer fires, the machine delivers TIMEOUT as an
// ordinary protocol event — the handler dispatch, VM, and continuation
// machinery are untouched. Machines that never lose messages (the model
// checker's World injects timeouts itself, nondeterministically) simply
// don't implement the interface.
type TimeoutArmer interface {
	// ArmTimeout (re)starts the timer for (node, block); a later Arm or
	// Cancel supersedes it.
	ArmTimeout(node, id int)
	// CancelTimeout invalidates any pending timer for (node, block).
	CancelTimeout(node, id int)
}

// DataMachine is the optional machine extension for substrates that model
// block *contents*, not just access modes. When the machine implements it,
// the engine routes RecvData through RecvDataMsg with the actual message so
// the machine can install the transported data version — the plain
// Machine.RecvData signature cannot see which message is being processed
// (a deferred-queue drain makes "the current message" engine-internal
// state). Implementations must apply the same access-mode change
// Machine.RecvData would.
type DataMachine interface {
	RecvDataMsg(node, id int, mode sema.AccessMode, m *Message)
}

// Support supplies the implementations of module routines and abstract
// constants. Implementations keep their own per-(node, block) data.
type Support interface {
	// Call invokes routine name. args are by-reference; var parameters may
	// be mutated in place.
	Call(ctx *Ctx, name string, args []*vm.Value) (vm.Value, error)
	// ModConst resolves an abstract module constant.
	ModConst(ctx *Ctx, name string) vm.Value
}

// Ctx is passed to support routines: which engine, block, and message are
// currently being processed.
type Ctx struct {
	Engine *Engine
	Block  *Block
	Msg    *Message
}

// Block is the per-block protocol state on one node.
type Block struct {
	ID       int
	State    *vm.StateVal
	Vars     []vm.Value
	Deferred []*Message

	transitioned bool
}

// StateName returns the block's current state name.
func (b *Block) StateName(p *Protocol) string {
	return p.IR.Sema.States[b.State.State].Name
}

// ProtocolError is a protocol-level failure (the Error builtin, an
// unhandled message, a runaway handler); the model checker treats it as an
// invariant violation.
type ProtocolError struct {
	Node  int
	Block int
	State string
	Msg   string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("protocol error on node %d, block %d (state %s): %s", e.Node, e.Block, e.State, e.Msg)
}

// Engine executes one node's share of the protocol.
type Engine struct {
	Proto   *Protocol
	Node    int
	Machine Machine
	Support Support
	Exec    vm.Exec

	Blocks []*Block

	// QueueRecords counts deferred-queue record allocations (included in
	// the paper's Table 1/2 "Allocs" columns alongside continuations).
	QueueRecords int64
	// Sends counts messages sent by this engine (for cost accounting).
	Sends int64

	// cur is the in-flight dispatch context.
	cur struct {
		msg   *Message
		block *Block
	}

	// obs is the optional event sink (see SetObs). Every emission below is
	// guarded by one nil check so the hot path is untouched when tracing is
	// off; BenchmarkEngineDispatch asserts this costs nothing measurable.
	obs     obs.Sink
	flowSeq int64

	// timeoutTag is the protocol's TIMEOUT message index (-1 when the
	// protocol declares none) and armer the machine's timer extension (nil
	// when the machine has no timers). Both nil-ish states make the timer
	// hook in Deliver a no-op. nackTag is its NACK message index (-1
	// likewise), which the Nack builtin needs.
	timeoutTag int
	nackTag    int
	armer      TimeoutArmer
	// timerFor[id] is the state the block's timer was armed in (-1 =
	// unarmed). The timer is armed on *entry* into a TIMEOUT-declaring
	// state and re-armed after a TIMEOUT fires — never reset by other
	// deliveries, or a steady drip of incoming retries (each under the
	// timeout interval apart) would postpone recovery forever.
	timerFor []int32

	// dataMachine is the machine's optional data-modeling extension (see
	// DataMachine); nil when the machine tracks access modes only.
	dataMachine DataMachine

	// params is dispatch's parameter buffer. RunHandler copies it into the
	// activation's frame before the handler runs, so one buffer serves
	// nested dispatches too.
	params []vm.Value

	// Scratch that saves an allocation per use; like params it belongs to
	// this engine alone. retry is the stack of
	// deferred queues being retried (see drain). ctx is what support
	// routines are handed, valid for the duration of the call. event is the
	// message an injected event is delivered as (Enqueue copies it before
	// deferring it). free holds the message records machines handed back
	// (see Release), which Send and Nack reuse.
	retry []*Message
	ctx   Ctx
	event Message
	free  []*Message

	// region, when non-nil, is where this engine's records are built (see
	// SetRegion); Exec.Region is its vm half.
	region *Region
}

// NewEngine builds an engine for a node managing numBlocks blocks.
func NewEngine(p *Protocol, node, numBlocks int, m Machine, sup Support) *Engine {
	e := &Engine{Proto: p, Node: node, Machine: m, Support: sup}
	e.Exec = vm.Exec{Prog: p.IR}
	e.timeoutTag, e.nackTag = p.MsgIndex("TIMEOUT"), p.MsgIndex("NACK")
	if e.timeoutTag >= 0 {
		e.armer, _ = m.(TimeoutArmer)
	}
	if e.armer != nil {
		e.timerFor = make([]int32, numBlocks)
	}
	e.dataMachine, _ = m.(DataMachine)
	e.Blocks = make([]*Block, numBlocks)
	for i := range e.Blocks {
		e.Blocks[i] = &Block{ID: i, Vars: make([]vm.Value, len(p.IR.Sema.ProtVars))}
	}
	e.Reset()
	return e
}

// Reset puts the engine back in the state NewEngine leaves it in: every
// block in its start state with zeroed variables and an empty deferred
// queue, and the counters, flow ids and timers cleared. What is immutable
// or scratch stays warm: the register and argument stacks, the bare-state
// and site-continuation tables, and the free message list.
func (e *Engine) Reset() {
	for _, b := range e.Blocks {
		start := e.Proto.CacheStart
		if e.Machine.HomeNode(b.ID) == e.Node {
			start = e.Proto.HomeStart
		}
		b.State = e.Exec.BareState(start)
		for i, v := range e.Proto.IR.Sema.ProtVars {
			b.Vars[i] = zeroValue(v.Type)
		}
		clear(b.Deferred)
		b.Deferred = b.Deferred[:0]
		b.transitioned = false
	}
	e.Exec.Counters = vm.Counters{}
	e.QueueRecords, e.Sends, e.flowSeq = 0, 0, 0
	for i := range e.timerFor {
		e.timerFor[i] = -1
	}
}

func zeroValue(t sema.Type) vm.Value {
	switch t.Kind {
	case sema.TInt:
		return vm.IntVal(0)
	case sema.TBool:
		return vm.BoolVal(false)
	case sema.TNode:
		return vm.NodeVal(-1)
	case sema.TID:
		return vm.IDVal(-1)
	case sema.TMsg:
		return vm.MsgVal(-1)
	case sema.TAccess:
		return vm.AccessVal(0)
	case sema.TState, sema.TCont, sema.TAbstract:
		return vm.Value{} // nil until assigned
	}
	return vm.Value{}
}

// Counters exposes accumulated VM counters.
func (e *Engine) Counters() vm.Counters { return e.Exec.Counters }

// Deliver dispatches a message to its block's current state, then drains
// the block's deferred queue as long as transitions keep occurring (the
// queued-unexpected-messages discipline from §2/§3: deferred messages are
// retried after a transition out of the state).
func (e *Engine) Deliver(m *Message) error {
	b := e.Blocks[m.ID]
	if e.obs != nil {
		e.obs.Emit(obs.Event{Kind: obs.KindDeliver, Node: int32(e.Node), Block: int32(b.ID),
			State: int32(b.State.State), Msg: int32(m.Tag), Peer: int32(m.Src), Flow: m.flow})
	}
	b.transitioned = false // retries are triggered by *this* delivery's transitions
	if err := e.dispatch(b, m); err != nil {
		return err
	}
	if err := e.drain(b); err != nil {
		return err
	}
	e.updateTimer(b, m.Tag == e.timeoutTag)
	return nil
}

// updateTimer keeps the machine's per-block timer in sync with the block's
// state after a completed delivery: armed while the state declares an
// explicit TIMEOUT handler (DEFAULT does not count — a defaulted TIMEOUT
// would hit the state's Enqueue/Error policy, which is never what a timer
// means). The timer is (re)armed only on entry into such a state, or after
// a TIMEOUT fired while remaining in one — an ordinary delivery that leaves
// the state unchanged must not reset it, or a steady drip of peer retries
// would postpone the timeout forever (the checker's nondeterministic
// TIMEOUT has no such starvation, and the simulator must not either).
// No-op unless both the protocol declares TIMEOUT and the machine
// implements TimeoutArmer.
func (e *Engine) updateTimer(b *Block, fired bool) {
	if e.armer == nil {
		return
	}
	state := int32(b.State.State)
	if e.Proto.IR.HandlerFunc[b.State.State][e.timeoutTag] != nil {
		if e.timerFor[b.ID] != state || fired {
			e.armer.ArmTimeout(e.Node, b.ID)
			e.timerFor[b.ID] = state
		}
	} else if e.timerFor[b.ID] >= 0 {
		e.armer.CancelTimeout(e.Node, b.ID)
		e.timerFor[b.ID] = -1
	}
}

const maxDrainPasses = 10000

func (e *Engine) drain(b *Block) error {
	for pass := 0; b.transitioned && len(b.Deferred) > 0; pass++ {
		if pass > maxDrainPasses {
			return e.errf(b, "deferred queue never drained (livelock)")
		}
		b.transitioned = false
		// Retry the queue as it stands, from a copy on the engine's retry
		// stack; what the handlers re-enqueue refills the block's own array.
		base := len(e.retry)
		e.retry = append(e.retry, b.Deferred...)
		q := e.retry[base:]
		b.Deferred = b.Deferred[:0]
		for i, m := range q {
			if e.obs != nil {
				e.obs.Emit(obs.Event{Kind: obs.KindDequeue, Node: int32(e.Node), Block: int32(b.ID),
					State: int32(b.State.State), Msg: int32(m.Tag), Peer: int32(m.Src),
					Arg: int64(len(q) - 1 - i)})
			}
			if err := e.dispatch(b, m); err != nil {
				e.retry = e.retry[:base]
				return err
			}
		}
		e.retry = e.retry[:base]
	}
	return nil
}

func (e *Engine) dispatch(b *Block, m *Message) error {
	f := e.Proto.IR.FuncFor(b.State.State, m.Tag)
	if f == nil {
		return e.errf(b, "no handler for message %s in state %s",
			e.msgName(m.Tag), b.StateName(e.Proto))
	}
	params := append(e.params[:0], vm.IDVal(m.ID), vm.InfoVal(b), vm.NodeVal(m.Src))
	params = append(params, m.Payload...)
	e.params = params
	if len(params) != f.NumParams {
		return e.errf(b, "message %s delivered with %d payload values, handler %s expects %d",
			e.msgName(m.Tag), len(m.Payload), f.Name, f.NumParams-3)
	}
	prev := e.cur
	e.cur.msg, e.cur.block = m, b
	if e.obs != nil {
		e.obs.Emit(obs.Event{Kind: obs.KindHandlerEnter, Node: int32(e.Node), Block: int32(b.ID),
			State: int32(b.State.State), Msg: int32(m.Tag), Peer: int32(m.Src)})
	}
	err := e.Exec.RunHandler(e, f, b.State.Args, params)
	if e.obs != nil {
		e.obs.Emit(obs.Event{Kind: obs.KindHandlerExit, Node: int32(e.Node), Block: int32(b.ID),
			State: int32(b.State.State), Msg: int32(m.Tag), Peer: int32(m.Src)})
	}
	e.cur = prev
	return err
}

// InjectEvent synthesizes a locally generated protocol event (access fault,
// synchronization, phase boundary) as a message from this node. The message
// is the engine's scratch record, in use until Deliver returns: a machine
// must not inject a second event into the same engine from inside the first.
func (e *Engine) InjectEvent(tag, id int, payload ...vm.Value) error {
	e.event = Message{Tag: tag, ID: id, Src: e.Node, Payload: payload}
	return e.Deliver(&e.event)
}

// Release hands a message record back for reuse. The rule is ownership: the
// machine that scheduled a delivery owns the record until Deliver returns,
// and may then release it to the engine it delivered to — which keeps it
// only if the engine did not defer the message. Deliver itself never
// releases (a caller may deliver one message many times), the payload array
// is never reused (a duplicated message shares it with its copy), and a
// machine that shares messages between worlds, as the model checker does,
// never releases at all.
func (e *Engine) Release(m *Message) {
	for _, d := range e.Blocks[m.ID].Deferred {
		if d == m {
			return
		}
	}
	e.free = append(e.free, m)
}

// Region is a vm.Region that also holds message records: everything an
// engine builds while the checker expands one state. A nil *Region is the
// heap. The rule is lifetime, as Release's is ownership: nothing built in a
// region may be reachable after its next Reset, so whoever resets it (an mc
// worker, as it starts each state and before each decodeInto) must overwrite or abandon every world
// whose engines build into it, and a world that must outlive the reset is
// decoded from its key onto the heap.
type Region struct {
	vm.Region
	msgs []*Message // records handed out since Reset: msgs[:used]
	used int
}

// Reset takes back every record and value the region handed out.
func (r *Region) Reset() {
	r.Region.Reset()
	r.used = 0
}

// SetRegion makes the engine build its records in r from here on (nil: on
// the heap).
func (e *Engine) SetRegion(r *Region) {
	e.region, e.Exec.Region = r, nil
	if r != nil {
		e.Exec.Region = &r.Region
	}
}

// newMessage returns a record for the caller to fill: the region's next
// when the engine has one, else a released one if there is one, else a new
// one.
func (e *Engine) newMessage() *Message {
	if r := e.region; r != nil {
		if r.used == len(r.msgs) {
			r.msgs = append(r.msgs, new(Message))
		}
		r.used++
		return r.msgs[r.used-1]
	}
	if n := len(e.free); n > 0 {
		m := e.free[n-1]
		e.free = e.free[:n-1]
		return m
	}
	return new(Message)
}

// supportCtx fills the engine's scratch Ctx for one support call.
func (e *Engine) supportCtx() *Ctx {
	e.ctx = Ctx{Engine: e, Block: e.cur.block, Msg: e.cur.msg}
	return &e.ctx
}

func (e *Engine) msgName(tag int) string {
	if tag >= 0 && tag < len(e.Proto.IR.Sema.Messages) {
		return e.Proto.IR.Sema.Messages[tag].Name
	}
	return fmt.Sprintf("msg%d", tag)
}

func (e *Engine) errf(b *Block, format string, args ...any) error {
	return &ProtocolError{
		Node:  e.Node,
		Block: b.ID,
		State: b.StateName(e.Proto),
		Msg:   fmt.Sprintf(format, args...),
	}
}

// ---- vm.Host implementation ----

var _ vm.Host = (*Engine)(nil)

// LoadVar implements vm.Host.
func (e *Engine) LoadVar(slot int) vm.Value { return e.cur.block.Vars[slot] }

// StoreVar implements vm.Host.
func (e *Engine) StoreVar(slot int, v vm.Value) { e.cur.block.Vars[slot] = v }

// ModConst implements vm.Host.
func (e *Engine) ModConst(slot int) vm.Value {
	return e.Support.ModConst(e.supportCtx(), e.Proto.IR.Sema.ModConsts[slot].Name)
}

// MessageTag implements vm.Host.
func (e *Engine) MessageTag() vm.Value { return vm.MsgVal(e.cur.msg.Tag) }

// MessageSrc implements vm.Host.
func (e *Engine) MessageSrc() vm.Value { return vm.NodeVal(e.cur.msg.Src) }

// Send implements vm.Host.
func (e *Engine) Send(data bool, dst, tag, id vm.Value, payload []vm.Value) error {
	m := e.newMessage()
	*m = Message{
		Tag:     int(tag.Int),
		ID:      int(id.Int),
		Src:     e.Node,
		Payload: payload,
		Data:    data,
	}
	e.Sends++
	if e.obs != nil {
		e.emitSend(m, int(dst.Int))
	}
	e.Machine.Send(e.Node, int(dst.Int), m)
	return nil
}

// SendTo sends a payload-less message about block id to node dst: what a
// support routine multicasting to a sharer set calls per member. It is Send
// without the vm's values — the record comes from where Send's does, Sends
// is counted in one place, and a sink sees the same Send event and flow id.
func (e *Engine) SendTo(dst, tag, id int, data bool) {
	m := e.newMessage()
	*m = Message{Tag: tag, ID: id, Src: e.Node, Data: data}
	e.Sends++
	if e.obs != nil {
		e.emitSend(m, dst)
	}
	e.Machine.Send(e.Node, dst, m)
}

// SetState implements vm.Host: transition the current block. Every
// transition (including Suspend's implicit one and self-transitions) makes
// deferred messages eligible for retry.
func (e *Engine) SetState(sv *vm.StateVal) error {
	e.cur.block.State = sv
	e.cur.block.transitioned = true
	return nil
}

// Enqueue implements vm.Host: defer the current message.
func (e *Engine) Enqueue() error {
	m := e.cur.msg
	if m == &e.event {
		// The scratch record serves the next injected event; the queue
		// gets a copy of its own.
		m = e.newMessage()
		*m = e.event
	}
	e.cur.block.Deferred = append(e.cur.block.Deferred, m)
	e.QueueRecords++
	if e.obs != nil {
		e.obs.Emit(obs.Event{Kind: obs.KindEnqueue, Node: int32(e.Node), Block: int32(e.cur.block.ID),
			State: int32(e.cur.block.State.State), Msg: int32(e.cur.msg.Tag), Peer: int32(e.cur.msg.Src),
			Arg: int64(len(e.cur.block.Deferred))})
	}
	return nil
}

// Nack implements vm.Host: send a NACK back to the sender carrying the
// original tag. The protocol must declare a NACK message to use this.
func (e *Engine) Nack() error {
	if e.nackTag < 0 {
		return e.errf(e.cur.block, "Nack() on message %s: protocol declares no NACK message",
			e.msgName(e.cur.msg.Tag))
	}
	m := e.newMessage()
	*m = Message{Tag: e.nackTag, ID: e.cur.msg.ID, Src: e.Node, Payload: e.Exec.Region.Values(1)}
	m.Payload[0] = vm.MsgVal(e.cur.msg.Tag)
	if e.obs != nil {
		e.obs.Emit(obs.Event{Kind: obs.KindNACK, Node: int32(e.Node), Block: int32(e.cur.block.ID),
			State: int32(e.cur.block.State.State), Msg: int32(e.cur.msg.Tag), Peer: int32(e.cur.msg.Src)})
		e.emitSend(m, e.cur.msg.Src)
	}
	e.Machine.Send(e.Node, e.cur.msg.Src, m)
	return nil
}

// Drop implements vm.Host: discard the current message.
func (e *Engine) Drop() error { return nil }

// WakeUp implements vm.Host.
func (e *Engine) WakeUp(id vm.Value) error {
	e.Machine.WakeUp(e.Node, int(id.Int))
	return nil
}

// AccessChange implements vm.Host.
func (e *Engine) AccessChange(id vm.Value, mode sema.AccessMode) error {
	e.Machine.AccessChange(e.Node, int(id.Int), mode)
	return nil
}

// RecvData implements vm.Host.
func (e *Engine) RecvData(id vm.Value, mode sema.AccessMode) error {
	if !e.cur.msg.Data {
		return e.errf(e.cur.block, "RecvData on message %s which carries no data", e.msgName(e.cur.msg.Tag))
	}
	if e.dataMachine != nil {
		e.dataMachine.RecvDataMsg(e.Node, int(id.Int), mode, e.cur.msg)
		return nil
	}
	e.Machine.RecvData(e.Node, int(id.Int), mode)
	return nil
}

// MyNode implements vm.Host.
func (e *Engine) MyNode() vm.Value { return vm.NodeVal(e.Node) }

// HomeNode implements vm.Host.
func (e *Engine) HomeNode(id vm.Value) vm.Value {
	return vm.NodeVal(e.Machine.HomeNode(int(id.Int)))
}

// BlockID implements vm.Host.
func (e *Engine) BlockID() vm.Value { return vm.IDVal(e.cur.block.ID) }

// BlockInfo implements vm.Host.
func (e *Engine) BlockInfo() vm.Value { return vm.InfoVal(e.cur.block) }

// CallSupport implements vm.Host.
func (e *Engine) CallSupport(name string, args []*vm.Value) (vm.Value, error) {
	return e.Support.Call(e.supportCtx(), name, args)
}

// ProtocolError implements vm.Host.
func (e *Engine) ProtocolError(msg string) error {
	return e.errf(e.cur.block, "%s", msg)
}

// Print implements vm.Host.
func (e *Engine) Print(s string) { e.Machine.Print(e.Node, s) }
