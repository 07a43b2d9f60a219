package runtime_test

import (
	"bytes"
	goruntime "runtime"
	"sort"
	"strconv"
	"testing"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
	"teapot/internal/runtime"
	"teapot/internal/vm"
)

// engineStates is an event generator that records the encoding of every
// engine state the checker asks it about — which is every state a running
// node's engine is in, in every reachable world — and otherwise generates
// what the generator it wraps does.
type engineStates struct {
	mc.EventGen
	seen map[string]bool
}

func (g *engineStates) Enabled(w *mc.World, node, block int) []mc.Event {
	for n := 0; n < w.Nodes(); n++ {
		var enc runtime.Encoder
		if err := w.Engine(n).EncodeState(&enc); err == nil {
			g.seen[string(enc.Bytes())] = true
		}
	}
	return g.EventGen.Enabled(w, node, block)
}

// fuzzBlocks is the number of blocks of the machines FuzzDecodeState takes
// its seeds from, and of the engines it decodes into.
const fuzzBlocks = 2

// reachableEngineStates returns the protocol and up to max distinct engine
// encodings (evenly spaced over the sorted set) met in the first 20,000
// states of a bundled protocol at 3 nodes / fuzzBlocks blocks under net.
func reachableEngineStates(t testing.TB, name string, net netmodel.Model, max int) (*runtime.Protocol, [][]byte) {
	t.Helper()
	spec, err := protocols.Spec(name, 3, fuzzBlocks)
	if err != nil {
		t.Fatal(err)
	}
	spec.Net, spec.Workers = net, 1
	cfg := spec.MCConfig()
	cfg.MaxStates = 20000 // far enough; the cut is reported as a violation
	rec := &engineStates{EventGen: cfg.Events, seen: map[string]bool{}}
	cfg.Events = rec
	if res, err := mc.Check(cfg); err != nil || res.Violation == nil || res.Violation.Kind != "state-limit" {
		t.Fatalf("%s: err %v, violation %v", name, err, res.Violation)
	}
	keys := make([]string, 0, len(rec.seen))
	for k := range rec.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out [][]byte
	for i := 0; i < len(keys); i += len(keys)/max + 1 {
		out = append(out, []byte(keys[i]))
	}
	return spec.Proto, out
}

// FuzzDecodeState: Engine.DecodeState reads bytes that may come from outside
// the checker (mc.Config.Restore), so on arbitrary input it returns an error
// or a state — never a panic, and never having allocated more than the
// input could describe (Decoder.Count refuses a count the remaining bytes
// could not hold, so a damaged length cannot size an allocation). What it
// does decode is a fixpoint of encode ∘ decode, and means the same whether
// its records were built on the heap or in a region that earlier inputs left
// dirty. Seeds are engine states of stache-ft and lcm reachable at 3 nodes /
// 2 blocks (deferred queues, continuations with saved registers, mask
// variables), every truncation of one of each, that one with a count no
// input this short could carry spliced in at every offset, and that one with
// every variable at −65, −64, −63, 63 and 64, either side of the edges of
// the one-byte varint.
func FuzzDecodeState(f *testing.F) {
	var protos []*runtime.Protocol
	for i, sh := range []struct {
		name string
		net  netmodel.Model
	}{
		{"stache-ft", netmodel.Model{MaxDrops: 1, MaxDups: 1}},
		{"lcm", netmodel.Model{Reorder: 1}},
	} {
		p, seeds := reachableEngineStates(f, sh.name, sh.net, 150)
		if len(seeds) < 50 {
			f.Fatalf("%s: only %d reachable engine states to seed with", sh.name, len(seeds))
		}
		protos = append(protos, p)
		for _, s := range seeds {
			f.Add(uint8(i), s)
		}
		last := seeds[len(seeds)-1]
		for cut := 0; cut < len(last); cut++ {
			f.Add(uint8(i), last[:cut])
		}
		for at := range last {
			f.Add(uint8(i), append(append(append([]byte{}, last[:at]...), 0xfe, 0xff, 0xff, 0x7f), last[at:]...))
		}
		e := runtime.NewEngine(p, 1, fuzzBlocks, newTestMachine(), nil)
		if err := e.DecodeState(runtime.NewDecoder(last)); err != nil || len(e.Blocks[0].Vars) == 0 {
			f.Fatalf("%s: seed state does not decode (%v) or has no variables", sh.name, err)
		}
		for _, v := range []int64{-65, -64, -63, 63, 64} {
			for _, b := range e.Blocks {
				for slot := range b.Vars {
					b.Vars[slot] = vm.IntVal(v)
				}
			}
			var enc runtime.Encoder
			if err := e.EncodeState(&enc); err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), enc.Bytes())
		}
	}
	region := new(runtime.Region)
	f.Fuzz(func(t *testing.T, proto uint8, data []byte) {
		p := protos[int(proto)%len(protos)]
		decode := func(e *runtime.Engine, b []byte) error {
			d := runtime.NewDecoder(b)
			if err := e.DecodeState(d); err != nil {
				return err
			}
			return d.Finish()
		}
		newEngine := func() *runtime.Engine { return runtime.NewEngine(p, 1, fuzzBlocks, newTestMachine(), nil) }

		e := newEngine()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		err := decode(e, data)
		goruntime.ReadMemStats(&after)
		// A value is 32 bytes and takes at least one byte of input, a record
		// about as much; the slack is for whatever else the process does.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), got, bound)
		}

		// The same bytes into a region other inputs have used: the same
		// verdict and, slot for slot, the same values. The heap-built state
		// is kept aside and the second decode goes over the same engine, so
		// that info handles on both sides denote the same block.
		type blockState struct {
			state    vm.Value
			vars     []vm.Value
			deferred []*runtime.Message
		}
		var heap []blockState
		for _, b := range e.Blocks {
			heap = append(heap, blockState{vm.StateValue(b.State), append([]vm.Value(nil), b.Vars...), append([]*runtime.Message(nil), b.Deferred...)})
		}
		region.Reset()
		e.SetRegion(region)
		if rerr := decode(e, data); (rerr == nil) != (err == nil) {
			t.Fatalf("heap decode: %v; region decode: %v", err, rerr)
		}
		if err != nil {
			return
		}
		for i, b := range e.Blocks {
			h := heap[i]
			if !vm.Equal(h.state, vm.StateValue(b.State)) || len(h.deferred) != len(b.Deferred) {
				t.Fatalf("block %d: region-built state %v with %d deferred, heap-built %v with %d", i, b.State, len(b.Deferred), h.state, len(h.deferred))
			}
			for slot, v := range h.vars {
				if !vm.Equal(v, b.Vars[slot]) {
					t.Fatalf("block %d variable %d: region-built %v, heap-built %v", i, slot, b.Vars[slot], v)
				}
			}
			for j, m := range h.deferred {
				r := b.Deferred[j]
				if m.Tag != r.Tag || m.ID != r.ID || m.Src != r.Src || m.Data != r.Data || m.Val != r.Val || len(m.Payload) != len(r.Payload) {
					t.Fatalf("block %d deferred message %d: region-built %+v, heap-built %+v", i, j, *r, *m)
				}
				for k, v := range m.Payload {
					if !vm.Equal(v, r.Payload[k]) {
						t.Fatalf("block %d deferred message %d payload %d: region-built %v, heap-built %v", i, j, k, r.Payload[k], v)
					}
				}
			}
		}

		// decode → encode → decode → encode is a fixpoint (the input itself
		// need not be: a varint has more than one spelling).
		var enc1, enc2 runtime.Encoder
		if err := e.EncodeState(&enc1); err != nil {
			t.Fatalf("decoded state does not encode: %v", err)
		}
		e2 := newEngine()
		if err := decode(e2, enc1.Bytes()); err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if err := e2.EncodeState(&enc2); err != nil || !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("encode∘decode is not a fixpoint (err %v): %x then %x", err, enc1.Bytes(), enc2.Bytes())
		}
	})
}

// deliveries reads a fuzz input as a sequence of messages for an engine of
// p: per message a tag byte (read modulo the declared tags plus two, so -1
// and one past the last are undeclared), a block byte (modulo fuzzBlocks), a
// source byte (any int8), a byte whose low bit is the data flag and whose
// next two bits count the payload values, and the values. Input past the
// end reads as zeros.
type deliveries struct {
	p    *runtime.Protocol
	data []byte
}

func (r *deliveries) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

func (r *deliveries) message() *runtime.Message {
	m := &runtime.Message{
		Tag: r.next()%(len(r.p.Sema().Messages)+2) - 1,
		ID:  r.next() % fuzzBlocks,
		Src: int(int8(r.next())),
	}
	flags := r.next()
	m.Data = flags&1 == 1
	for i := 0; i < flags>>1&3; i++ {
		m.Payload = append(m.Payload, r.value(1))
	}
	return m
}

// value reads one value of any kind: a kind byte, an int8 operand, and for a
// state or continuation what it holds. A state has the arity its third byte
// names, whatever its declaration says (arity 3 is a state value with no
// record at all); a continuation is a well-formed record of a suspend site,
// holding values that need not be of the types the fragment expects.
func (r *deliveries) value(depth int) vm.Value {
	kind, n := vm.Kind(r.next()%int(vm.KInfo+1)), int64(int8(r.next()))
	nested := func(vals []vm.Value) { // left nil below the given depth
		for i := range vals {
			if depth > 0 {
				vals[i] = r.value(depth - 1)
			}
		}
	}
	switch kind {
	case vm.KString:
		return vm.StringVal(strconv.FormatInt(n, 10))
	case vm.KState:
		arity := r.next() % 4
		if arity == 3 {
			return vm.Value{Kind: vm.KState}
		}
		sv := &vm.StateVal{State: int(uint8(n)) % len(r.p.Sema().States), Args: make([]vm.Value, arity)}
		nested(sv.Args)
		return vm.StateValue(sv)
	case vm.KCont:
		sites := r.p.IR.Sites
		if len(sites) == 0 {
			return vm.Value{}
		}
		s := sites[int(uint8(n))%len(sites)]
		c := (*vm.Region)(nil).NewCont(s, len(s.Func.Frags[s.FragIdx].Saved))
		nested(c.Saved)
		return vm.ContVal(c)
	case vm.KInfo:
		return vm.InfoVal(nil)
	case vm.KAbstract:
		return vm.AbstractVal([]int64{n})
	}
	return vm.Value{Kind: kind, Int: n} // nil and the scalars, with any operand
}

// FuzzExec: the interpreter runs compiled handlers on whatever a machine
// delivers, so on any message sequence — tags the protocol does not declare,
// payloads of any length holding values of any kind (strings, states,
// continuations, nil, values Go cannot compare) — every Deliver returns nil
// or an error and never panics, and the register stack is empty after each.
// The engines are every runnable bundled protocol, optimized and not, as
// node 1 of a stub machine on which block 0 is cached and block 1 at home,
// with a step budget small enough that a runaway loop ends the handler
// quickly; an input is read as at most 64 deliveries. Seeds deliver every
// declared tag in order to each block, with the payload arity the block's
// start state expects, holding nils and holding each kind in turn.
func FuzzExec(f *testing.F) {
	type target struct {
		p   *runtime.Protocol
		sup runtime.Support
	}
	var targets []target
	for _, e := range protocols.All() {
		if !e.Runnable() {
			continue
		}
		for _, optimize := range []bool{true, false} {
			e.Config.Optimize = optimize
			spec, err := e.Spec(3, fuzzBlocks)
			if err != nil {
				f.Fatal(err)
			}
			targets = append(targets, target{spec.Proto, spec.Support})
		}
	}
	for i, tg := range targets {
		// seedValue is what value reads back as a value of kind k, operand n,
		// holding integers.
		seedValue := func(k vm.Kind, n int) []byte {
			b := []byte{byte(k), byte(n)}
			switch k {
			case vm.KState:
				b = append(b, 1, byte(vm.KInt), 5)
			case vm.KCont:
				if sites := tg.p.IR.Sites; len(sites) > 0 {
					s := sites[n%len(sites)]
					for range s.Func.Frags[s.FragIdx].Saved {
						b = append(b, byte(vm.KInt), 5)
					}
				}
			}
			return b
		}
		for block, start := range []int{tg.p.CacheStart, tg.p.HomeStart} {
			var bare, loaded []byte
			for tag := range tg.p.Sema().Messages {
				params := 0
				if h := tg.p.IR.FuncFor(start, tag); h != nil {
					params = min(h.NumParams-3, 3)
				}
				bare = append(bare, byte(tag+1), byte(block), 0, byte(params<<1))
				bare = append(bare, make([]byte, 2*params)...) // nil values
				loaded = append(loaded, byte(tag+1), byte(block), byte(tag), byte(1|params<<1))
				for j := 0; j < params; j++ {
					loaded = append(loaded, seedValue(vm.Kind((tag+j)%int(vm.KInfo+1)), tag)...)
				}
			}
			f.Add(uint8(i), bare)
			f.Add(uint8(i), loaded)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		tg := targets[int(which)%len(targets)]
		m := newTestMachine()
		m.homes = func(id int) int { return runtime.HomeOf(id, 2) }
		e := runtime.NewEngine(tg.p, 1, fuzzBlocks, m, tg.sup)
		e.Exec.MaxSteps = 200
		r := &deliveries{p: tg.p, data: data}
		for i := 0; len(r.data) > 0 && i < 64; i++ {
			msg := r.message()
			err := e.Deliver(msg)
			if d := e.Exec.Depth(); d != 0 {
				t.Fatalf("delivery %d (%+v, err %v) left the register stack at depth %d", i, *msg, err, d)
			}
		}
	})
}
