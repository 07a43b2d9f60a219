// Package oracle judges executed protocol runs for memory coherence,
// independently of the protocol under test. It consumes the obs event
// stream a Tempest run emits under sim.Config.ObsMemory — access-mode
// changes, data installs, and completed reads/writes, each carrying the
// machine's modeled data versions — and checks per-block invariants:
//
//   - SWMR: at every handler boundary, a block has at most one read-write
//     copy, and never a read-write copy alongside read-only copies
//     (buffered-mode copies are exempt: weak-ordering protocols share
//     buffered writers with readers by design).
//   - ReadLatest: every completed read observes the version created by the
//     most recent completed write of that block — the "reads return the
//     value of the most recent write" half of coherence under the
//     simulator's single linearization (its virtual-time event order).
//   - NoLostWrites: at end of run, the latest version of every written
//     block survives somewhere a future read could legally be served from
//     (a node with a valid copy, or the block's home).
//
// The oracle knows nothing about the protocol's states or messages; it
// trusts only the machine-level event stream. That makes it the executable
// counterpart of the model checker's coherence invariant: mc proves SWMR
// over all schedules of a small configuration, the oracle checks the full
// data-value property on whichever schedules actually ran.
package oracle

import (
	"fmt"

	"teapot/internal/obs"
	"teapot/internal/runtime"
	"teapot/internal/sema"
)

// Invariants selects which checks run. Data turns on both data-value
// checks, ReadLatest and NoLostWrites, which assume an invalidation-style
// protocol where a completed write makes every other copy unreadable;
// write-through and buffered protocols (update, bufwrite) propagate values
// asynchronously and are judged on SWMR only.
type Invariants struct {
	SWMR bool
	Data bool
}

// AllInvariants enables every check.
func AllInvariants() Invariants { return Invariants{SWMR: true, Data: true} }

// SWMROnly checks the access-control invariant alone.
func SWMROnly() Invariants { return Invariants{SWMR: true} }

// Config describes the run being judged. Block b's home is node
// runtime.HomeOf(b, Nodes), as in the machine, whose initial access map the
// oracle mirrors: the home starts read-write.
type Config struct {
	Nodes  int
	Blocks int
	Inv    Invariants

	// InitMem mirrors the machine's initial block values (litmus runs;
	// see tempest.Config.InitMem): InitMem[b] is version 0 of block b, so
	// a read completing before any write legally observes it instead of
	// tripping ReadLatest. Values are version-0 packed words — for 32-bit
	// values those are the values themselves (tempest.PackVal(0, v) == v).
	InitMem []int64

	// TrackReads records every completed read's observed value per node,
	// in completion order — the litmus harness reads them back as the
	// scripted workload's register file (Reads) and judges the final state
	// (FinalValue) as its expected/forbidden-outcome invariant profile.
	TrackReads bool
}

// Violation is the first invariant failure observed, with the violating
// event's position and the events leading up to it.
type Violation struct {
	Invariant string // "swmr" | "read-latest" | "no-lost-writes"
	Node      int    // node whose access/copy violated (or -1)
	Block     int
	Detail    string
	Seq       int64       // oracle sequence number of the violating event
	Context   []obs.Event // up to the last contextSize events, oldest first
}

func (v *Violation) Error() string {
	return fmt.Sprintf("coherence violation (%s) at event %d, node %d, block %d: %s",
		v.Invariant, v.Seq, v.Node, v.Block, v.Detail)
}

func accName(m sema.AccessMode) string {
	switch m {
	case sema.AccInvalid:
		return "Invalid"
	case sema.AccReadOnly:
		return "ReadOnly"
	case sema.AccReadWrite:
		return "ReadWrite"
	case sema.AccBuffered:
		return "Buffered"
	}
	return fmt.Sprintf("Access(%d)", int(m))
}

const contextSize = 16

// Checker is a streaming oracle: wire it as (part of) the run's obs sink,
// then call Finish. The first violation is latched; later events are
// still consumed (cheaply) but never overwrite it.
type Checker struct {
	cfg Config
	now func() int64

	access  []sema.AccessMode // node×block current mode
	mem     []int64           // node×block installed version
	version []int64           // per block: latest completed write
	writer  []int32           // per block: node of latest write (-1 none)
	dirty   []bool            // per block: access map changed since last SWMR eval
	reads   [][]int64         // per node: observed read values (Config.TrackReads)

	// ring holds the last contextSize events: event seq at seq%contextSize.
	ring [contextSize]obs.Event
	seq  int64
	v    *Violation
}

// New builds a checker for a run over nodes×blocks.
func New(cfg Config) *Checker {
	c := &Checker{
		cfg:     cfg,
		access:  make([]sema.AccessMode, cfg.Nodes*cfg.Blocks),
		mem:     make([]int64, cfg.Nodes*cfg.Blocks),
		version: make([]int64, cfg.Blocks),
		writer:  make([]int32, cfg.Blocks),
		dirty:   make([]bool, cfg.Blocks),
	}
	if cfg.TrackReads {
		c.reads = make([][]int64, cfg.Nodes)
	}
	c.Reset()
	return c
}

// Reset readies the checker to judge another run of the same shape, as New
// built it; the clock stays.
func (c *Checker) Reset() {
	cfg := c.cfg
	clear(c.access)
	clear(c.mem)
	clear(c.version)
	clear(c.dirty)
	for b := 0; b < cfg.Blocks; b++ {
		c.access[runtime.HomeOf(b, cfg.Nodes)*cfg.Blocks+b] = sema.AccReadWrite
		c.writer[b] = -1
	}
	for b, v := range cfg.InitMem {
		if b >= cfg.Blocks {
			break
		}
		// Version 0 of the block: the latest "write" until a real one, held
		// by every node's copy (mirroring the machine's InitMem install).
		c.version[b] = v
		for n := 0; n < cfg.Nodes; n++ {
			c.mem[n*cfg.Blocks+b] = v
		}
	}
	for n := range c.reads {
		c.reads[n] = c.reads[n][:0]
	}
	c.seq, c.v = 0, nil
}

// SetClock implements obs.ClockSetter; timestamps make the violation
// context line up with Chrome traces of the same run.
func (c *Checker) SetClock(now func() int64) { c.now = now }

// Emit implements obs.Sink.
func (c *Checker) Emit(ev obs.Event) {
	ev.Seq = c.seq
	c.seq++
	if c.now != nil {
		ev.Time = c.now()
	}
	c.ring[ev.Seq%contextSize] = ev
	if c.v != nil {
		return
	}
	switch ev.Kind {
	case obs.KindAccess:
		c.setAccess(int(ev.Node), int(ev.Block), sema.AccessMode(ev.Arg))
	case obs.KindData:
		c.mem[int(ev.Node)*c.cfg.Blocks+int(ev.Block)] = ev.Arg
	case obs.KindDeliver, obs.KindDequeue:
		// Handler boundary: transient mid-handler access states have
		// settled, so the dirty blocks are judged now (mirroring mc, which
		// checks invariants on post-handler states only).
		c.evalDirty(ev)
	case obs.KindRead:
		c.evalDirty(ev)
		if c.v != nil {
			return
		}
		c.checkRead(ev)
	case obs.KindWrite:
		c.evalDirty(ev)
		if c.v != nil {
			return
		}
		c.checkWrite(ev)
	}
}

func (c *Checker) setAccess(node, block int, mode sema.AccessMode) {
	slot := node*c.cfg.Blocks + block
	if c.access[slot] != mode {
		c.access[slot] = mode
		c.dirty[block] = true
	}
}

// evalDirty re-checks SWMR on every block whose access map changed.
func (c *Checker) evalDirty(at obs.Event) {
	if !c.cfg.Inv.SWMR {
		for b := range c.dirty {
			c.dirty[b] = false
		}
		return
	}
	for b := 0; b < c.cfg.Blocks; b++ {
		if !c.dirty[b] {
			continue
		}
		c.dirty[b] = false
		if c.v == nil {
			c.checkSWMR(b, at)
		}
	}
}

func (c *Checker) checkSWMR(block int, at obs.Event) {
	writers, readers := 0, 0
	writerNode, readerNode := -1, -1
	for n := 0; n < c.cfg.Nodes; n++ {
		switch c.access[n*c.cfg.Blocks+block] {
		case sema.AccReadWrite:
			if writers == 0 {
				writerNode = n
			} else {
				readerNode = n // second writer, for the report
			}
			writers++
		case sema.AccReadOnly:
			if readers == 0 {
				readerNode = n
			}
			readers++
		}
	}
	if writers > 1 {
		c.fail("swmr", writerNode, block, at,
			fmt.Sprintf("two read-write copies (nodes %d and %d)", writerNode, readerNode))
	} else if writers == 1 && readers > 0 {
		c.fail("swmr", writerNode, block, at,
			fmt.Sprintf("read-write copy on node %d alongside %d read-only cop(y/ies) (e.g. node %d)",
				writerNode, readers, readerNode))
	}
}

func (c *Checker) checkRead(ev obs.Event) {
	node, block := int(ev.Node), int(ev.Block)
	if c.reads != nil {
		c.reads[node] = append(c.reads[node], ev.Arg)
	}
	mode := c.access[node*c.cfg.Blocks+block]
	if mode != sema.AccReadOnly && mode != sema.AccReadWrite {
		c.fail("swmr", node, block, ev,
			fmt.Sprintf("read completed under %s access", accName(mode)))
		return
	}
	if c.cfg.Inv.Data && ev.Arg != c.version[block] {
		c.fail("read-latest", node, block, ev,
			fmt.Sprintf("read observed version %d, latest write is version %d (by node %d)",
				ev.Arg, c.version[block], c.writer[block]))
	}
}

func (c *Checker) checkWrite(ev obs.Event) {
	node, block := int(ev.Node), int(ev.Block)
	mode := c.access[node*c.cfg.Blocks+block]
	protocolPerformed := ev.Site != 0
	writable := mode == sema.AccReadWrite || mode == sema.AccBuffered ||
		(protocolPerformed && mode == sema.AccReadOnly)
	if !writable {
		c.fail("swmr", node, block, ev,
			fmt.Sprintf("write completed under %s access", accName(mode)))
		return
	}
	c.version[block] = ev.Arg
	c.writer[block] = ev.Node
	c.mem[node*c.cfg.Blocks+block] = ev.Arg
}

// Finish runs the end-of-run checks and returns the first violation seen
// anywhere in the run (nil = coherent).
func (c *Checker) Finish() *Violation {
	end := obs.Event{Kind: obs.KindDeliver, Node: -1, Block: -1, Seq: c.seq}
	if c.v == nil {
		c.evalDirty(end)
	}
	if c.v == nil && c.cfg.Inv.Data {
		for b := 0; b < c.cfg.Blocks; b++ {
			if c.version[b] == 0 {
				continue // never written
			}
			if !c.survives(b) {
				c.fail("no-lost-writes", int(c.writer[b]), b, end,
					fmt.Sprintf("latest write (version %d by node %d) survives on no valid copy and not at home node %d",
						c.version[b], c.writer[b], runtime.HomeOf(b, c.cfg.Nodes)))
			}
			if c.v != nil {
				break
			}
		}
	}
	return c.v
}

// survives reports whether block b's latest version could still serve a
// future read: held by a node with a valid (readable) copy, or present at
// the block's home — the fallback server every directory protocol refills
// from.
func (c *Checker) survives(b int) bool {
	for n := 0; n < c.cfg.Nodes; n++ {
		if c.mem[n*c.cfg.Blocks+b] != c.version[b] {
			continue
		}
		mode := c.access[n*c.cfg.Blocks+b]
		if mode == sema.AccReadOnly || mode == sema.AccReadWrite || n == runtime.HomeOf(b, c.cfg.Nodes) {
			return true
		}
	}
	return false
}

// Reads returns the values node's completed reads observed, in completion
// order (Config.TrackReads; nil otherwise). The returned slice is the
// checker's own, valid until the next Reset — callers must not mutate it.
func (c *Checker) Reads(node int) []int64 {
	if c.reads == nil {
		return nil
	}
	return c.reads[node]
}

// FinalValue returns the packed value of block b's latest completed write
// (the initial value if b was never written) — the run's final memory
// image for litmus outcome judging.
func (c *Checker) FinalValue(b int) int64 { return c.version[b] }

func (c *Checker) fail(inv string, node, block int, at obs.Event, detail string) {
	// The ring unrolled oldest first: the last min(seq, contextSize) events.
	ctx := make([]obs.Event, min(c.seq, contextSize))
	for i := range ctx {
		ctx[i] = c.ring[(c.seq-int64(len(ctx))+int64(i))%contextSize]
	}
	c.v = &Violation{
		Invariant: inv,
		Node:      node,
		Block:     block,
		Detail:    detail,
		Seq:       at.Seq,
		Context:   ctx,
	}
}
