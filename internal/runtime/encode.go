package runtime

import (
	"encoding/binary"
	"errors"
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

// Int encodes a signed integer as binary.AppendVarint does. Nearly every
// integer in a state — a state or site number, a count, a node or block id,
// a small variable — takes one byte, appended here without the varint loop.
func (e *Encoder) Int(v int64) {
	if uint64(v+64) < 128 { // -64 <= v < 64: the zig-zag form fits seven bits
		e.buf = append(e.buf, byte(v<<1^v>>63))
		return
	}
	e.buf = binary.AppendVarint(e.buf, v)
}

// Str encodes a string.
func (e *Encoder) Str(s string) {
	e.Int(int64(len(s)))
	e.buf = append(e.buf, s...)
}

// Byte encodes one byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Raw appends bytes that are already an encoding: a stretch of another key
// that the caller knows this one shares (never under a remap, which would
// have written them differently).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Decoder reads the canonical byte form. Its error is sticky: once a read
// fails (short input, a malformed varint, a count the remaining bytes could
// not hold) every later read returns zero and Err reports the first failure,
// so decoding code checks once per structure instead of once per field and
// can never index past a damaged encoding.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a buffer, which it reads where it is: the caller must
// not change b while the decoder is in use.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Reset points the decoder at b (read in place, as NewDecoder does) and
// clears its error.
func (d *Decoder) Reset(b []byte) { *d = Decoder{buf: b} }

// Pos returns how many bytes of the buffer have been read.
func (d *Decoder) Pos() int { return d.off }

// Err returns the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// fail records err as the decoding failure unless one is already recorded.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
		d.off = len(d.buf) // nothing further is read
	}
}

// Finish reports the sticky error, or trailing bytes after the last read.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.err = fmt.Errorf("runtime: corrupt state encoding (%d trailing bytes)", len(d.buf)-d.off)
	}
	return d.err
}

// Int decodes a signed integer written by Encoder.Int (any binary.Varint
// encoding). A one-byte varint is read here; the rest, and every malformed
// input, go through intSlow. (The inliner cannot take Int: the call to
// intSlow alone costs 57 of its budget of 80.)
func (d *Decoder) Int() int64 {
	if d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return int64(b>>1) ^ -int64(b&1)
		}
	}
	return d.intSlow()
}

// intSlow decodes a varint of more than one byte, or refuses the input.
func (d *Decoder) intSlow() int64 {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 { // short input, or a value overflowing 64 bits
		d.fail(errors.New("runtime: corrupt state encoding (varint)"))
		return 0
	}
	d.off += n
	return v
}

// Count decodes the length of a sequence whose elements take at least one
// byte each, so a count larger than the bytes left is corrupt — which also
// bounds what a caller may allocate for it.
func (d *Decoder) Count() int {
	n := d.Int()
	if n < 0 || n > int64(len(d.buf)-d.off) {
		d.fail(fmt.Errorf("runtime: corrupt state encoding (count %d with %d bytes left)", n, len(d.buf)-d.off))
		return 0
	}
	return int(n)
}

// Str decodes a string (copied out of the buffer).
func (d *Decoder) Str() string {
	n := d.Count()
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Byte decodes one byte.
func (d *Decoder) Byte() byte {
	if d.off >= len(d.buf) {
		d.fail(errors.New("runtime: corrupt state encoding (short read)"))
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// EncodeValue writes one value. An abstract support value is opaque to the
// runtime and has no encoding: a protocol that keeps one in a block variable
// or a continuation cannot be snapshotted, and says so here.
func (e *Engine) EncodeValue(enc *Encoder, v vm.Value) error {
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
		enc.Str(v.Str())
	case vm.KState:
		sv := v.State()
		enc.Int(int64(sv.State))
		enc.Int(int64(len(sv.Args)))
		for _, a := range sv.Args {
			if err := e.EncodeValue(enc, a); err != nil {
				return err
			}
		}
	case vm.KCont:
		c := v.Cont()
		enc.Int(int64(c.Site))
		enc.Int(int64(len(c.Saved)))
		for _, a := range c.Saved {
			if err := e.EncodeValue(enc, a); err != nil {
				return err
			}
		}
	case vm.KInfo:
		// The info handle always refers to the enclosing block.
	case vm.KAbstract:
		return fmt.Errorf("runtime: abstract value in state: it has no encoding")
	default:
		return fmt.Errorf("runtime: cannot encode value kind %d", v.Kind)
	}
	return nil
}

// DecodeValue reads one value; block is the block whose info handles are
// being reconstructed. On damaged input it returns an error or leaves one
// in the decoder (see Decoder.Err); it never panics.
func (e *Engine) DecodeValue(d *Decoder, block *Block) (vm.Value, error) {
	kind := vm.Kind(d.Byte())
	switch kind {
	case vm.KNil:
		return vm.Value{}, nil
	case vm.KInt, vm.KBool, vm.KNode, vm.KID, vm.KMsg, vm.KAccess:
		return vm.Value{Kind: kind, Int: d.Int()}, nil
	case vm.KString:
		return vm.StringVal(d.Str()), nil
	case vm.KState:
		state := int(d.Int())
		if state < 0 || state >= len(e.Proto.IR.Sema.States) {
			return vm.Value{}, fmt.Errorf("runtime: bad state %d in encoding", state)
		}
		n := d.Count()
		if n == 0 {
			return vm.StateValue(e.Exec.BareState(state)), nil
		}
		sv := e.Exec.Region.NewState(state, n)
		if err := e.decodeValues(d, sv.Args, block); err != nil {
			return vm.Value{}, err
		}
		return vm.StateValue(sv), nil
	case vm.KCont:
		site := int(d.Int())
		if site < 0 || site >= len(e.Proto.IR.Sites) {
			return vm.Value{}, fmt.Errorf("runtime: bad suspend site %d in encoding", site)
		}
		s := e.Proto.IR.Sites[site]
		n := d.Count()
		if want := len(s.Func.Frags[s.FragIdx].Saved); d.Err() == nil && n != want {
			return vm.Value{}, fmt.Errorf("runtime: suspend site %d saves %d registers, encoding holds %d", site, want, n)
		}
		if n == 0 {
			return vm.ContVal(e.Exec.SiteCont(site)), nil
		}
		c := e.Exec.Region.NewCont(s, n)
		if err := e.decodeValues(d, c.Saved, block); err != nil {
			return vm.Value{}, err
		}
		return vm.ContVal(c), nil
	case vm.KInfo:
		return vm.InfoVal(block), nil
	}
	return vm.Value{}, fmt.Errorf("runtime: cannot decode value kind %d", kind)
}

// decodeValues fills dst, which the caller sized from a Decoder.Count.
func (e *Engine) decodeValues(d *Decoder, dst []vm.Value, block *Block) (err error) {
	for i := range dst {
		if dst[i], err = e.DecodeValue(d, block); err != nil {
			return err
		}
	}
	return nil
}

// EncodeMessage writes a message (without its destination, which the
// channel key carries).
func (e *Engine) EncodeMessage(enc *Encoder, m *Message) error {
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
		if err := e.EncodeValue(enc, v); err != nil {
			return err
		}
	}
	return nil
}

// DecodeMessage reads a message encoded by EncodeMessage. The error may be
// the decoder's sticky one.
func (e *Engine) DecodeMessage(d *Decoder) (*Message, error) {
	m := e.newMessage()
	*m = Message{Tag: int(d.Int()), ID: int(d.Int()), Src: int(d.Int())}
	m.Data = d.Byte() == 1
	m.Val = d.Int()
	n := d.Count()
	if m.ID < 0 || m.ID >= len(e.Blocks) {
		return nil, fmt.Errorf("runtime: bad block id %d in encoded message", m.ID)
	}
	if n > 0 {
		m.Payload = e.Exec.Region.Values(n)
		if err := e.decodeValues(d, m.Payload, e.Blocks[m.ID]); err != nil {
			return nil, err
		}
	}
	return m, d.Err()
}

// EncodeState writes the engine's full protocol state (all blocks: state
// value, protocol variables, deferred queue). Under a remap the blocks are
// written in image order and node-bitmask variables are re-indexed.
func (e *Engine) EncodeState(enc *Encoder) error {
	r := enc.remap
	for i := range e.Blocks {
		b := e.Blocks[r.SrcBlock(i)]
		if err := e.EncodeValue(enc, vm.StateValue(b.State)); err != nil {
			return err
		}
		for slot, v := range b.Vars {
			if r != nil && v.Kind == vm.KInt && r.isMaskSlot(slot) {
				v.Int = r.mapMask(v.Int)
			}
			if err := e.EncodeValue(enc, v); err != nil {
				return err
			}
		}
		enc.Int(int64(len(b.Deferred)))
		for _, m := range b.Deferred {
			if err := e.EncodeMessage(enc, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeState overwrites the engine's protocol state in place from an
// encoding produced by EncodeState on an engine with the same shape: block
// records, variable slots and deferred-queue arrays are reused, and nothing
// of what the engine held before (a half-run handler's transitioned flag
// included) survives. The error may be the decoder's sticky one.
func (e *Engine) DecodeState(d *Decoder) error {
	for _, b := range e.Blocks {
		sv, err := e.DecodeValue(d, b)
		if err != nil {
			return err
		}
		b.State = sv.State()
		if b.State == nil {
			return fmt.Errorf("runtime: block %d decoded non-state", b.ID)
		}
		if err := e.decodeValues(d, b.Vars, b); err != nil {
			return err
		}
		n := d.Count()
		b.Deferred = b.Deferred[:0]
		for i := 0; i < n; i++ {
			m, err := e.DecodeMessage(d)
			if err != nil {
				return err
			}
			b.Deferred = append(b.Deferred, m)
		}
		b.transitioned = false
	}
	return d.Err()
}
