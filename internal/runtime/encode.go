package runtime

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"teapot/internal/vm"
)

// State snapshot/restore support for the model checker. The encoding is
// canonical: two engines with identical logical state produce identical
// bytes. Continuations are encoded by their suspend-site ID plus saved
// values, which is exactly what makes the "same source" verification of §7
// possible over the compiled representation.

// Encoder serializes values into a canonical byte form. The zero value
// encodes state as it is; Reset with a non-nil Remap makes the same walk
// write the state's image under a node/block relabelling instead.
type Encoder struct {
	buf   []byte
	remap *Remap
}

// Remap is one node/block relabelling applied while encoding: the model
// checker's symmetry reduction encodes a world under every element of its
// permutation group without ever building the permuted world. Identity
// values are mapped as they are written — KNode and KID values wherever
// they nest (state arguments, continuation saves, message payloads),
// message Src and ID fields, and the bits of the declared node-bitmask
// variable slots — and containers are walked in image order through the
// inverse maps, so the bytes equal those of the relabelled state.
type Remap struct {
	Node, Block       []int // node n is written as Node[n], block b as Block[b]
	NodeInv, BlockInv []int // image position i is filled from NodeInv[i] / BlockInv[i]
	MaskSlots         []int // protocol-variable slots holding node bitmasks
}

// NewRemap builds the relabelling for one permutation pair, precomputing
// the inverses.
func NewRemap(node, block, maskSlots []int) *Remap {
	r := &Remap{Node: node, Block: block, MaskSlots: maskSlots,
		NodeInv: make([]int, len(node)), BlockInv: make([]int, len(block))}
	for i, v := range node {
		r.NodeInv[v] = i
	}
	for i, v := range block {
		r.BlockInv[v] = i
	}
	return r
}

// MapNode returns the label node n is written under (n itself for a nil
// remap or an id outside the machine, e.g. the -1 "no node" sentinel).
func (r *Remap) MapNode(n int) int {
	if r == nil || n < 0 || n >= len(r.Node) {
		return n
	}
	return r.Node[n]
}

// MapBlock is MapNode for block ids.
func (r *Remap) MapBlock(b int) int {
	if r == nil || b < 0 || b >= len(r.Block) {
		return b
	}
	return r.Block[b]
}

// SrcNode returns the node whose state fills image position i.
func (r *Remap) SrcNode(i int) int {
	if r == nil {
		return i
	}
	return r.NodeInv[i]
}

// SrcBlock is SrcNode for block positions.
func (r *Remap) SrcBlock(i int) int {
	if r == nil {
		return i
	}
	return r.BlockInv[i]
}

// mapMask re-indexes a node bitmask bit by bit; bits beyond the machine
// stay where they are.
func (r *Remap) mapMask(mask int64) int64 {
	var out int64
	for rest := uint64(mask); rest != 0; rest &= rest - 1 {
		bit := bits.TrailingZeros64(rest)
		if bit < len(r.Node) {
			bit = r.Node[bit]
		}
		out |= 1 << bit
	}
	return out
}

// isMaskSlot reports whether variable slot i holds a node bitmask.
func (r *Remap) isMaskSlot(i int) bool {
	for _, s := range r.MaskSlots {
		if s == i {
			return true
		}
	}
	return false
}

// Reset empties the encoder, keeping its buffer, and installs the
// relabelling for the next encoding (nil for none).
func (e *Encoder) Reset(r *Remap) {
	e.buf = e.buf[:0]
	e.remap = r
}

// Remap returns the relabelling installed by Reset (nil for none).
func (e *Encoder) Remap() *Remap { return e.remap }

// Bytes returns the accumulated encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// Int encodes a signed integer.
func (e *Encoder) Int(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Str encodes a string.
func (e *Encoder) Str(s string) {
	e.Int(int64(len(s)))
	e.buf = append(e.buf, s...)
}

// Byte encodes one byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Decoder reads the canonical byte form.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps a buffer.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Int decodes a signed integer.
func (d *Decoder) Int() int64 {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		panic("runtime: corrupt state encoding (varint)")
	}
	d.off += n
	return v
}

// Str decodes a string.
func (d *Decoder) Str() string {
	n := int(d.Int())
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Byte decodes one byte.
func (d *Decoder) Byte() byte {
	b := d.buf[d.off]
	d.off++
	return b
}

// AbstractCodec lets a support module participate in snapshots when a
// protocol stores abstract values in block variables or continuations.
type AbstractCodec interface {
	EncodeAbstract(v any, e *Encoder) error
	DecodeAbstract(d *Decoder) (any, error)
}

// EncodeValue writes one value. The engine is needed to resolve
// continuations; codec may be nil when no abstract values occur.
func (e *Engine) EncodeValue(enc *Encoder, v vm.Value, codec AbstractCodec) error {
	enc.Byte(byte(v.Kind))
	switch v.Kind {
	case vm.KNil:
	case vm.KInt, vm.KBool, vm.KMsg, vm.KAccess:
		enc.Int(v.Int)
	case vm.KNode:
		enc.Int(int64(enc.remap.MapNode(int(v.Int))))
	case vm.KID:
		enc.Int(int64(enc.remap.MapBlock(int(v.Int))))
	case vm.KString:
		enc.Str(v.Str)
	case vm.KState:
		sv := v.State()
		enc.Int(int64(sv.State))
		enc.Int(int64(len(sv.Args)))
		for _, a := range sv.Args {
			if err := e.EncodeValue(enc, a, codec); err != nil {
				return err
			}
		}
	case vm.KCont:
		c := v.Cont()
		enc.Int(int64(c.Site))
		enc.Int(int64(len(c.Saved)))
		for _, a := range c.Saved {
			if err := e.EncodeValue(enc, a, codec); err != nil {
				return err
			}
		}
	case vm.KInfo:
		// The info handle always refers to the enclosing block.
	case vm.KAbstract:
		if codec == nil {
			return fmt.Errorf("runtime: abstract value in state but no codec provided")
		}
		return codec.EncodeAbstract(v.Ref, enc)
	default:
		return fmt.Errorf("runtime: cannot encode value kind %d", v.Kind)
	}
	return nil
}

// DecodeValue reads one value; block is the block whose info handles are
// being reconstructed.
func (e *Engine) DecodeValue(d *Decoder, block *Block, codec AbstractCodec) (vm.Value, error) {
	kind := vm.Kind(d.Byte())
	switch kind {
	case vm.KNil:
		return vm.Value{}, nil
	case vm.KInt, vm.KBool, vm.KNode, vm.KID, vm.KMsg, vm.KAccess:
		return vm.Value{Kind: kind, Int: d.Int()}, nil
	case vm.KString:
		return vm.StringVal(d.Str()), nil
	case vm.KState:
		sv := &vm.StateVal{State: int(d.Int())}
		n := int(d.Int())
		for i := 0; i < n; i++ {
			a, err := e.DecodeValue(d, block, codec)
			if err != nil {
				return vm.Value{}, err
			}
			sv.Args = append(sv.Args, a)
		}
		return vm.StateValue(sv), nil
	case vm.KCont:
		site := int(d.Int())
		if site < 0 || site >= len(e.Proto.IR.Sites) {
			return vm.Value{}, fmt.Errorf("runtime: bad suspend site %d in encoding", site)
		}
		s := e.Proto.IR.Sites[site]
		c := &vm.Cont{Fn: s.Func, Frag: s.FragIdx, Site: site}
		n := int(d.Int())
		for i := 0; i < n; i++ {
			a, err := e.DecodeValue(d, block, codec)
			if err != nil {
				return vm.Value{}, err
			}
			c.Saved = append(c.Saved, a)
		}
		return vm.ContVal(c), nil
	case vm.KInfo:
		return vm.InfoVal(block), nil
	case vm.KAbstract:
		if codec == nil {
			return vm.Value{}, fmt.Errorf("runtime: abstract value in encoding but no codec provided")
		}
		ref, err := codec.DecodeAbstract(d)
		if err != nil {
			return vm.Value{}, err
		}
		return vm.AbstractVal(ref), nil
	}
	return vm.Value{}, fmt.Errorf("runtime: cannot decode value kind %d", kind)
}

// EncodeMessage writes a message (without its destination, which the
// channel key carries).
func (e *Engine) EncodeMessage(enc *Encoder, m *Message, codec AbstractCodec) error {
	enc.Int(int64(m.Tag))
	enc.Int(int64(enc.remap.MapBlock(m.ID)))
	enc.Int(int64(enc.remap.MapNode(m.Src)))
	if m.Data {
		enc.Byte(1)
	} else {
		enc.Byte(0)
	}
	enc.Int(m.Val)
	enc.Int(int64(len(m.Payload)))
	for _, v := range m.Payload {
		if err := e.EncodeValue(enc, v, codec); err != nil {
			return err
		}
	}
	return nil
}

// DecodeMessage reads a message encoded by EncodeMessage.
func (e *Engine) DecodeMessage(d *Decoder, codec AbstractCodec) (*Message, error) {
	m := &Message{Tag: int(d.Int()), ID: int(d.Int()), Src: int(d.Int())}
	m.Data = d.Byte() == 1
	m.Val = d.Int()
	n := int(d.Int())
	block := e.Blocks[m.ID]
	for i := 0; i < n; i++ {
		v, err := e.DecodeValue(d, block, codec)
		if err != nil {
			return nil, err
		}
		m.Payload = append(m.Payload, v)
	}
	return m, nil
}

// EncodeState writes the engine's full protocol state (all blocks: state
// value, protocol variables, deferred queue). Under a remap the blocks are
// written in image order and node-bitmask variables are re-indexed.
func (e *Engine) EncodeState(enc *Encoder, codec AbstractCodec) error {
	r := enc.remap
	for i := range e.Blocks {
		b := e.Blocks[r.SrcBlock(i)]
		if err := e.EncodeValue(enc, vm.StateValue(b.State), codec); err != nil {
			return err
		}
		for slot, v := range b.Vars {
			if r != nil && v.Kind == vm.KInt && r.isMaskSlot(slot) {
				v.Int = r.mapMask(v.Int)
			}
			if err := e.EncodeValue(enc, v, codec); err != nil {
				return err
			}
		}
		enc.Int(int64(len(b.Deferred)))
		for _, m := range b.Deferred {
			if err := e.EncodeMessage(enc, m, codec); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeState restores the engine's protocol state from an encoding
// produced by EncodeState on an engine with the same shape.
func (e *Engine) DecodeState(d *Decoder, codec AbstractCodec) error {
	for _, b := range e.Blocks {
		sv, err := e.DecodeValue(d, b, codec)
		if err != nil {
			return err
		}
		b.State = sv.State()
		if b.State == nil {
			return fmt.Errorf("runtime: block %d decoded non-state", b.ID)
		}
		for i := range b.Vars {
			if b.Vars[i], err = e.DecodeValue(d, b, codec); err != nil {
				return err
			}
		}
		n := int(d.Int())
		b.Deferred = nil
		for i := 0; i < n; i++ {
			m, err := e.DecodeMessage(d, codec)
			if err != nil {
				return err
			}
			b.Deferred = append(b.Deferred, m)
		}
		b.transitioned = false
	}
	return nil
}
