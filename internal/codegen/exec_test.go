package codegen_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"teapot/internal/codegen"
	"teapot/internal/core"
	"teapot/internal/ir"
	"teapot/internal/protocols"
)

// execProtocol is compiled, generated to Go, then *executed* by a driver
// main with a scripted Host: the generated code must reproduce the
// suspend/resume behaviour (send, transition, wake) of the source.
const execProtocol = `
protocol X begin
  var count : int;
  state S();
  state W(C : CONT) transient;
  message GO;
  message ACK;
end;
state X.S() begin
  message GO (id : ID; var info : INFO; src : NODE)
  var x : int;
  begin
    x := 5;
    count := count + x;
    Send(src, ACK, id);
    Suspend(L, W{L});
    count := count + x * 2;
    SetState(info, S{});
    WakeUp(id);
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
state X.W(C : CONT) begin
  message ACK (id : ID; var info : INFO; src : NODE) begin Resume(C); end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
`

const driverMain = `package main

import "fmt"

type host struct {
	vars  map[int]V
	state State
	sent  []int
	woken int
}

func (h *host) Send(dst, tag, blk int, data bool, payload ...V) { h.sent = append(h.sent, tag) }
func (h *host) SetState(s State)                                { h.state = s }
func (h *host) Enqueue()                                        {}
func (h *host) Nack()                                           {}
func (h *host) Drop()                                           {}
func (h *host) Error(msg string, args ...V)                     { panic(msg) }
func (h *host) WakeUp(blk int)                                  { h.woken++ }
func (h *host) AccessChange(blk int, mode int64)                {}
func (h *host) RecvData(blk int, mode int64)                    {}
func (h *host) MyNode() int                                     { return 0 }
func (h *host) HomeNode(blk int) int                            { return 0 }
func (h *host) LoadVar(slot int) V                              { return h.vars[slot] }
func (h *host) StoreVar(slot int, v V)                          { h.vars[slot] = v }
func (h *host) ModConst(slot int) V                             { return V{} }
func (h *host) MessageTag() V                                   { return V{} }
func (h *host) MessageSrc() V                                   { return V{I: 1} }
func (h *host) Call(name string, args []*V) V                   { return V{} }
func (h *host) Print(args ...V)                                 {}
func (h *host) Remat(r []V) {
	r[0] = V{I: 0} // block id
	r[1] = V{}     // info handle
}

func main() {
	h := &host{vars: map[int]V{}}
	params := []V{{I: 0}, {}, {I: 1}}
	// Dispatch GO in state StS.
	Handlers[[2]int{StS, MsgGO}](h, nil, params)
	if h.state.ID != StW {
		panic(fmt.Sprintf("state after GO = %d, want W", h.state.ID))
	}
	if len(h.sent) != 1 || h.sent[0] != MsgACK {
		panic(fmt.Sprintf("sent = %v", h.sent))
	}
	if h.vars[0].I != 5 {
		panic(fmt.Sprintf("count = %d, want 5", h.vars[0].I))
	}
	// Deliver ACK in state W: the handler resumes the suspended GO.
	Handlers[[2]int{StW, MsgACK}](h, h.state.Args, params)
	if h.vars[0].I != 15 {
		panic(fmt.Sprintf("count = %d, want 15 (local x restored across suspend)", h.vars[0].I))
	}
	if h.state.ID != StS || h.woken != 1 {
		panic(fmt.Sprintf("final state=%d woken=%d", h.state.ID, h.woken))
	}
	fmt.Println("GENERATED-CODE-OK")
}
`

// TestGeneratedCodeExecutes builds and runs generated Go, checking that the
// continuation machinery (fragment split, save/restore, resume transfer)
// behaves identically to the interpreted protocol.
func TestGeneratedCodeExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	for _, optimize := range []bool{false, true} {
		art, err := core.Compile(core.Config{
			Name: "x.tea", Source: execProtocol, Optimize: optimize,
			HomeStart: "S", CacheStart: "S",
		})
		if err != nil {
			t.Fatal(err)
		}
		src := codegen.Generate(art.IR, "main")
		dir := t.TempDir()
		write := func(name, content string) {
			t.Helper()
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write("go.mod", "module gen\n\ngo 1.22\n")
		write("proto.go", src)
		write("main.go", driverMain)
		cmd := exec.Command("go", "run", ".")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("optimize=%v: %v\n%s", optimize, err, out)
		}
		if !strings.Contains(string(out), "GENERATED-CODE-OK") {
			t.Fatalf("optimize=%v: output %q", optimize, out)
		}
	}
}

// TestHandlerTableComplete: the generated dispatch table covers exactly the
// handlers of the semantic model.
func TestHandlerTableComplete(t *testing.T) {
	a := protocols.MustCompile("stache", true)
	src := codegen.Generate(a.IR, "proto")
	for si, st := range a.Sema.States {
		for _, h := range st.Handlers {
			if h.Msg == nil {
				continue
			}
			entry := "{" + itoa(si) + ", " + itoa(h.Msg.Index) + "}:"
			if !strings.Contains(src, entry) {
				t.Errorf("dispatch table missing %s.%s (%s)", st.Name, h.Msg.Name, entry)
			}
		}
		if st.Default != nil {
			if !strings.Contains(src, itoa(si)+": h_"+st.Name+"_DEFAULT") {
				t.Errorf("defaults table missing %s", st.Name)
			}
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}

var _ = ir.Program{}
