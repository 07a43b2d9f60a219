package vm_test

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"teapot/internal/cont"
	"teapot/internal/ir"
	"teapot/internal/lower"
	"teapot/internal/parser"
	"teapot/internal/sema"
	"teapot/internal/vm"
)

// fakeHost records effects; every builtin is observable.
type fakeHost struct {
	vars    map[int]vm.Value
	sent    []string
	states  []int
	printed []string
	errors  []string
	woken   []int
	enq     int
	tag     int
	src     int
	calls   []string
	callFn  func(name string, args []*vm.Value) (vm.Value, error)
}

func newFakeHost() *fakeHost {
	return &fakeHost{vars: map[int]vm.Value{}, tag: 0, src: 3}
}

func (h *fakeHost) LoadVar(slot int) vm.Value     { return h.vars[slot] }
func (h *fakeHost) StoreVar(slot int, v vm.Value) { h.vars[slot] = v }
func (h *fakeHost) ModConst(slot int) vm.Value    { return vm.IntVal(int64(100 + slot)) }
func (h *fakeHost) MessageTag() vm.Value          { return vm.MsgVal(h.tag) }
func (h *fakeHost) MessageSrc() vm.Value          { return vm.NodeVal(h.src) }
func (h *fakeHost) Send(data bool, dst, tag, id vm.Value, payload []vm.Value) error {
	h.sent = append(h.sent, dst.String()+"/"+tag.String())
	return nil
}
func (h *fakeHost) SetState(sv *vm.StateVal) error                    { h.states = append(h.states, sv.State); return nil }
func (h *fakeHost) Enqueue() error                                    { h.enq++; return nil }
func (h *fakeHost) Nack() error                                       { return nil }
func (h *fakeHost) Drop() error                                       { return nil }
func (h *fakeHost) WakeUp(id vm.Value) error                          { h.woken = append(h.woken, int(id.Int)); return nil }
func (h *fakeHost) AccessChange(id vm.Value, m sema.AccessMode) error { return nil }
func (h *fakeHost) RecvData(id vm.Value, m sema.AccessMode) error     { return nil }
func (h *fakeHost) MyNode() vm.Value                                  { return vm.NodeVal(7) }
func (h *fakeHost) HomeNode(id vm.Value) vm.Value                     { return vm.NodeVal(0) }
func (h *fakeHost) BlockID() vm.Value                                 { return vm.IDVal(0) }
func (h *fakeHost) BlockInfo() vm.Value                               { return vm.InfoVal(h) }
func (h *fakeHost) CallSupport(name string, args []*vm.Value) (vm.Value, error) {
	h.calls = append(h.calls, name)
	if h.callFn != nil {
		return h.callFn(name, args)
	}
	return vm.IntVal(42), nil
}
func (h *fakeHost) ProtocolError(msg string) error {
	h.errors = append(h.errors, msg)
	return protoErr(msg)
}
func (h *fakeHost) Print(s string) { h.printed = append(h.printed, s) }

type protoErr string

func (e protoErr) Error() string { return string(e) }

// compileHandler builds a one-handler protocol around body and returns the
// compiled handler.
func compileHandler(t *testing.T, decls, body string) (*ir.Program, *ir.Func) {
	t.Helper()
	src := `
module M begin
  type KNOB;
  const Magic : KNOB;
  function Query(x : int) : int;
  procedure Act(x : int);
end;
protocol P begin
  var n : int;
  var flag : bool;
  state S();
  state W(C : CONT) transient;
  message GO;
  message ACK;
` + decls + `
end;
state P.S() begin
  message GO (id : ID; var info : INFO; src : NODE)
  var x, y : int; b : bool;
  begin
` + body + `
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
state P.W(C : CONT) begin
  message ACK (id : ID; var info : INFO; src : NODE) begin Resume(C); end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
`
	prog, err := parser.Parse("t.tea", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p := lower.Lower(sp)
	cont.Transform(p, cont.Optimized)
	for _, f := range p.Funcs {
		if f.Name == "S.GO" {
			return p, f
		}
	}
	t.Fatal("S.GO not found")
	return nil, nil
}

func runGo(t *testing.T, p *ir.Program, f *ir.Func, h vm.Host) *vm.Exec {
	t.Helper()
	x := &vm.Exec{Prog: p}
	params := []vm.Value{vm.IDVal(0), vm.InfoVal(nil), vm.NodeVal(3)}
	if err := x.RunHandler(h, f, nil, params); err != nil {
		t.Fatalf("run: %v", err)
	}
	return x
}

func TestArithmeticAndVars(t *testing.T) {
	h := newFakeHost()
	p, f := compileHandler(t, "", `
    x := 6;
    y := x * 7 - 2;
    n := y / 4 + y % 5;
    flag := n >= 10 and not (n = 11);
  `)
	runGo(t, p, f, h)
	// y = 40; n = 10 + 0 = 10; flag = (10>=10) && !(10==11) = true.
	if got := h.vars[0].Int; got != 10 {
		t.Errorf("n = %d, want 10", got)
	}
	if !h.vars[1].Bool() {
		t.Errorf("flag = %v, want true", h.vars[1])
	}
}

func TestControlFlow(t *testing.T) {
	h := newFakeHost()
	p, f := compileHandler(t, "", `
    x := 0;
    y := 0;
    while (x < 5) do
      if (x % 2 = 0) then
        y := y + 10;
      else
        y := y + 1;
      endif;
      x := x + 1;
    end;
    n := y;
  `)
	runGo(t, p, f, h)
	if got := h.vars[0].Int; got != 32 {
		t.Errorf("n = %d, want 32", got)
	}
}

func TestDivisionByZeroIsProtocolError(t *testing.T) {
	h := newFakeHost()
	p, f := compileHandler(t, "", `
    x := 0;
    y := 3 / x;
  `)
	x := &vm.Exec{Prog: p}
	err := x.RunHandler(h, f, nil, []vm.Value{vm.IDVal(0), vm.InfoVal(nil), vm.NodeVal(3)})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunawayLoopGuard(t *testing.T) {
	h := newFakeHost()
	p, f := compileHandler(t, "", `
    flag := true;
    while (flag) do
      x := x + 1;
    end;
  `)
	x := &vm.Exec{Prog: p, MaxSteps: 1000}
	err := x.RunHandler(h, f, nil, []vm.Value{vm.IDVal(0), vm.InfoVal(nil), vm.NodeVal(3)})
	if err == nil || !strings.Contains(err.Error(), "runaway") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuiltinsReachHost(t *testing.T) {
	h := newFakeHost()
	p, f := compileHandler(t, "", `
    Send(src, ACK, id);
    SendData(MyNode(), GO, id);
    print(Msg_To_Str(MessageTag), MessageSrc);
    WakeUp(id);
    SetState(info, S{});
  `)
	runGo(t, p, f, h)
	if len(h.sent) != 2 {
		t.Fatalf("sent = %v", h.sent)
	}
	if h.sent[0] != "node3/msg1" || h.sent[1] != "node7/msg0" {
		t.Errorf("sent = %v", h.sent)
	}
	if len(h.printed) != 1 || h.printed[0] != "GO node3" {
		t.Errorf("printed = %v", h.printed)
	}
	if len(h.woken) != 1 || h.woken[0] != 0 {
		t.Errorf("woken = %v", h.woken)
	}
	if len(h.states) != 1 {
		t.Errorf("states = %v", h.states)
	}
}

func TestSupportCallResultAndModConst(t *testing.T) {
	h := newFakeHost()
	h.callFn = func(name string, args []*vm.Value) (vm.Value, error) {
		if name == "Query" {
			return vm.IntVal(args[0].Int * 2), nil
		}
		// Mutate the by-reference argument.
		*args[0] = vm.IntVal(999)
		return vm.Value{}, nil
	}
	p, f := compileHandler(t, "", `
    x := Query(21);
    n := x;
    Act(x);
  `)
	runGo(t, p, f, h)
	if got := h.vars[0].Int; got != 42 {
		t.Errorf("n = %d, want 42", got)
	}
	if len(h.calls) != 2 {
		t.Errorf("calls = %v", h.calls)
	}
}

func TestErrorBuiltinFormatting(t *testing.T) {
	h := newFakeHost()
	p, f := compileHandler(t, "", `
    Error("bad %s here", Msg_To_Str(MessageTag));
  `)
	x := &vm.Exec{Prog: p}
	err := x.RunHandler(h, f, nil, []vm.Value{vm.IDVal(0), vm.InfoVal(nil), vm.NodeVal(3)})
	if err == nil || !strings.Contains(err.Error(), "bad GO here") {
		t.Fatalf("err = %v", err)
	}
}

func TestCountersAccumulate(t *testing.T) {
	h := newFakeHost()
	p, f := compileHandler(t, "", `
    x := 1 + 2;
    Act(x);
  `)
	x := runGo(t, p, f, h)
	c := x.Counters
	if c.Handlers != 1 || c.Instrs == 0 || c.Calls != 1 {
		t.Errorf("counters = %+v", c)
	}
	var sum vm.Counters
	sum.Add(c)
	sum.Add(c)
	if sum.Instrs != 2*c.Instrs || sum.Handlers != 2 {
		t.Errorf("Add broken: %+v", sum)
	}
}

func TestValueEquality(t *testing.T) {
	// Continuations compare by structure: the simulator hands out one
	// record per save-nothing site while the checker rebuilds every record
	// it decodes, and both must see the same "=".
	fn, other := &ir.Func{Name: "S.GO"}, &ir.Func{Name: "S.ACK"}
	rec := func(f *ir.Func, frag int, saved ...vm.Value) vm.Value {
		return vm.ContVal(&vm.Cont{Fn: f, Frag: frag, Saved: saved})
	}
	waiting := func(c vm.Value) vm.Value {
		return vm.StateValue(&vm.StateVal{State: 2, Args: []vm.Value{c, vm.NodeVal(1)}})
	}
	// A support module may hand out what Go cannot compare: such a value
	// equals nothing, itself included, and comparing it must not panic.
	slice, table := vm.AbstractVal([]int{1}), vm.AbstractVal(map[int]int{})
	nested := vm.AbstractVal(struct{ v any }{[]int{1}})
	handle := vm.AbstractVal(&struct{ n int }{})
	// Strings live behind Ref: two with the same text in different arrays
	// are one value.
	word := func() vm.Value { return vm.StringVal(string([]byte("word"))) }
	cases := []struct {
		a, b vm.Value
		eq   bool
	}{
		{vm.IntVal(3), vm.IntVal(3), true},
		{vm.IntVal(3), vm.IntVal(4), false},
		{vm.IntVal(3), vm.NodeVal(3), false}, // kinds differ
		{vm.BoolVal(true), vm.BoolVal(true), true},
		{vm.StringVal("a"), vm.StringVal("a"), true},
		{vm.StringVal("a"), vm.StringVal("b"), false},
		{vm.StateValue(&vm.StateVal{State: 1}), vm.StateValue(&vm.StateVal{State: 1}), true},
		{vm.StateValue(&vm.StateVal{State: 1}), vm.StateValue(&vm.StateVal{State: 2}), false},
		{
			vm.StateValue(&vm.StateVal{State: 1, Args: []vm.Value{vm.IntVal(5)}}),
			vm.StateValue(&vm.StateVal{State: 1, Args: []vm.Value{vm.IntVal(5)}}),
			true,
		},
		{
			vm.StateValue(&vm.StateVal{State: 1, Args: []vm.Value{vm.IntVal(5)}}),
			vm.StateValue(&vm.StateVal{State: 1, Args: []vm.Value{vm.IntVal(6)}}),
			false,
		},
		{rec(fn, 1), rec(fn, 1), true}, // two records, one value
		{rec(fn, 1, vm.IntVal(5)), rec(fn, 1, vm.IntVal(5)), true},
		{rec(fn, 1, vm.IntVal(5)), rec(fn, 1, vm.IntVal(6)), false},
		{rec(fn, 1, vm.IntVal(5)), rec(fn, 1), false},
		{rec(fn, 1), rec(fn, 2), false},
		{rec(fn, 1), rec(other, 1), false},
		{rec(fn, 1), vm.ContVal(nil), false},
		{waiting(rec(fn, 1, vm.IDVal(3))), waiting(rec(fn, 1, vm.IDVal(3))), true},
		{waiting(rec(fn, 1, vm.IDVal(3))), waiting(rec(fn, 2, vm.IDVal(3))), false},
		{slice, slice, false},
		{table, table, false},
		{nested, nested, false},
		{slice, table, false},
		{handle, handle, true},
		{handle, vm.AbstractVal(&struct{ n int }{}), false},
		{vm.AbstractVal(3), vm.AbstractVal(3), true},
		{vm.AbstractVal(3), slice, false},
		{vm.AbstractVal(nil), vm.AbstractVal(nil), true},
		{vm.AbstractVal(nil), slice, false},
		{word(), word(), true},
		{word(), vm.StringVal("ward"), false},
		{word(), vm.Value{Kind: vm.KString}, false},
		{vm.StringVal(""), vm.Value{Kind: vm.KString}, true},
	}
	for i, c := range cases {
		if got := vm.Equal(c.a, c.b); got != c.eq {
			t.Errorf("case %d: Equal(%v, %v) = %v, want %v", i, c.a, c.b, got, c.eq)
		}
	}
}

// Property: scalar equality agrees with payload equality per kind.
func TestScalarEqualityProperty(t *testing.T) {
	f := func(a, b int64, kind uint8) bool {
		mk := func(v int64) vm.Value {
			switch kind % 5 {
			case 0:
				return vm.IntVal(v)
			case 1:
				return vm.NodeVal(int(v))
			case 2:
				return vm.IDVal(int(v))
			case 3:
				return vm.MsgVal(int(v))
			default:
				return vm.BoolVal(v != 0)
			}
		}
		va, vb := mk(a), mk(b)
		want := va.Int == vb.Int
		return vm.Equal(va, vb) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueStrings(t *testing.T) {
	checks := map[string]vm.Value{
		"5":     vm.IntVal(5),
		"true":  vm.BoolVal(true),
		"node2": vm.NodeVal(2),
		"blk1":  vm.IDVal(1),
		"msg4":  vm.MsgVal(4),
		"nil":   {},
		"s":     vm.StringVal("s"),
	}
	for want, v := range checks {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", v, got, want)
		}
	}
}

// heapSink keeps what TestRegion takes from the heap reachable, so that the
// compiler cannot build it on the stack instead.
var heapSink any

// TestRegion: what a region hands out stays where it is and keeps what was
// put there until Reset, however many chunks later runs spill into; after
// Reset the same storage is handed out again; and a nil region is the heap,
// where a state with one argument and a record saving one or two registers
// are one allocation each.
func TestRegion(t *testing.T) {
	sites := make([]*ir.SuspendSite, 201)
	for n := range sites {
		sites[n] = &ir.SuspendSite{ID: n, FragIdx: n % 3, Heap: n%2 == 0}
	}
	fill := func(vals []vm.Value, n, tag int) {
		for i := range vals {
			vals[i] = vm.IntVal(int64(tag*1000000 + n*1000 + i))
		}
	}
	for _, r := range []*vm.Region{nil, new(vm.Region)} {
		var runs [][]vm.Value
		var states []*vm.StateVal
		var conts []*vm.Cont
		for n := 1; n <= 200; n++ { // 60,300 values: several doublings of a 32-value chunk
			run, sv, c := r.Values(n), r.NewState(n, n), r.NewCont(sites[n], n)
			for _, vals := range [][]vm.Value{run, sv.Args, c.Saved} {
				if len(vals) != n || cap(vals) != n {
					t.Fatalf("arity %d: len %d cap %d", n, len(vals), cap(vals))
				}
			}
			fill(run, n, 1)
			fill(sv.Args, n, 2)
			fill(c.Saved, n, 3)
			runs, states, conts = append(runs, run), append(states, sv), append(conts, c)
		}
		for k := range runs {
			n := k + 1
			for tag, vals := range [][]vm.Value{runs[k], states[k].Args, conts[k].Saved} {
				for i, v := range vals {
					if v.Int != int64((tag+1)*1000000+n*1000+i) {
						t.Fatalf("region %v: arity %d, vector %d, value %d overwritten: %v", r != nil, n, tag, i, v)
					}
				}
			}
			c, s := conts[k], sites[n]
			if states[k].State != n || c.Site != n || c.Frag != s.FragIdx || c.Heap != s.Heap {
				t.Fatalf("region %v: record %d does not hold what it was built with", r != nil, n)
			}
		}
		if r == nil {
			for _, n := range []int{1, 2} {
				if a := testing.AllocsPerRun(100, func() { heapSink = r.NewCont(sites[n], n) }); a != 1 {
					t.Errorf("a heap record saving %d registers took %v allocations, want 1", n, a)
				}
			}
			if a := testing.AllocsPerRun(100, func() { heapSink = r.NewState(1, 1) }); a != 1 {
				t.Errorf("a heap state with one argument took %v allocations, want 1", a)
			}
			continue
		}
		first := &runs[0][0]
		r.Reset()
		if again := r.Values(1); &again[0] != first {
			t.Error("Reset did not hand the first chunk out again")
		}
		allocs := testing.AllocsPerRun(10, func() {
			r.Reset()
			for n := 1; n <= 200; n++ {
				r.Values(n)
				r.NewState(n, n)
				r.NewCont(sites[n], n)
			}
		})
		if allocs != 0 {
			t.Errorf("a warmed region allocated %.0f times for the load it was warmed with", allocs)
		}
	}
}

// TestValueSize is the layout contract the interpreter's speed rests on:
// every register, parameter, state argument and continuation save is one
// 32-byte value.
func TestValueSize(t *testing.T) {
	if got := reflect.TypeOf(vm.Value{}).Size(); got != 32 {
		t.Errorf("vm.Value is %d bytes, want 32", got)
	}
}
