package parser

import (
	"errors"
	"strings"
	"testing"

	"teapot/internal/ast"
	"teapot/internal/lexer"
	"teapot/internal/source"
	"teapot/internal/token"
)

// figure7 is (lightly normalized) the paper's Figure 7/8 Stache fragment.
const figure7 = `
module StacheSupport begin
  type INFO;
  type ACCESS;
  const Blk_Invalidate : ACCESS;
  const Blk_Upgrade_RW : ACCESS;
  procedure Send(dst : NODE; tag : MSG; id : ID);
  procedure SetState(var info : INFO; s : STATE);
  procedure AccessChange(id : ID; a : ACCESS);
  procedure WakeUp(id : ID);
  procedure Enqueue(tag : MSG; id : ID; var info : INFO; home : NODE);
  procedure RecvData(id : ID; a : ACCESS);
  procedure Error(fmt : string; arg : string);
  function Msg_To_Str(tag : MSG) : string;
end;

protocol Stache begin
  state Cache_ReadOnly();
  state Cache_RO_To_RW(C : CONT) transient;
  state Cache_Inv();
  state Cache_RW();
  message WR_RO_FAULT;
  message PUT_NO_DATA_REQ;
  message PUT_NO_DATA_RESP;
  message UPGRADE_REQ;
  message UPGRADE_ACK;
  message GET_RW_RESP;
end;

State Stache.Cache_ReadOnly{ }
Begin
  Message WR_RO_FAULT (id: ID; Var info: INFO; home: NODE)
  Begin
    Send(home, UPGRADE_REQ, id);
    Suspend(L, Cache_RO_To_RW{L});
    WakeUp(id);
  End;
  Message PUT_NO_DATA_REQ (id: ID; Var info: INFO; home: NODE)
  Begin
    Send(home, PUT_NO_DATA_RESP, id);
    SetState(info, Cache_Inv{});
    AccessChange(id, Blk_Invalidate);
  End;
  Message DEFAULT (id: ID; Var info: INFO; home: NODE)
  Begin
    Error("Invalid msg %s to Cache_RO", Msg_To_Str(MessageTag));
  End;
End;

State Stache.Cache_RO_To_RW{C : CONT}
Begin
  Message UPGRADE_ACK (id: ID; Var info: INFO; home: NODE)
  Begin
    SetState(info, Cache_RW{});
    AccessChange(id, Blk_Upgrade_RW);
    Resume(C);
  End;
  Message GET_RW_RESP (id: ID; Var info: INFO; home: NODE)
  Begin
    RecvData(id, Blk_Upgrade_RW);
    SetState(info, Cache_RW{});
    Resume(C);
  End;
  Message DEFAULT (id: ID; Var info: INFO; home: NODE)
  Begin
    Enqueue(MessageTag, id, info, home);
  End;
End;
`

func TestParseFigure7(t *testing.T) {
	prog, err := Parse("fig7.tea", figure7)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	if len(prog.Modules) != 1 {
		t.Fatalf("modules = %d, want 1", len(prog.Modules))
	}
	if got := len(prog.Modules[0].Decls); got != 12 {
		t.Errorf("module decls = %d, want 12", got)
	}
	if prog.Protocol == nil || prog.Protocol.Name.Name != "Stache" {
		t.Fatalf("protocol = %v", prog.Protocol)
	}
	if len(prog.States) != 2 {
		t.Fatalf("states = %d, want 2", len(prog.States))
	}
	ro := prog.States[0]
	if ro.Proto.Name != "Stache" || ro.Name.Name != "Cache_ReadOnly" {
		t.Errorf("state 0 = %s.%s", ro.Proto, ro.Name)
	}
	if len(ro.Handlers) != 3 {
		t.Fatalf("Cache_ReadOnly handlers = %d, want 3", len(ro.Handlers))
	}
	if !ro.Handlers[2].IsDefault() {
		t.Errorf("handler 2 should be DEFAULT, got %s", ro.Handlers[2].Name)
	}
	// WR_RO_FAULT: Send; Suspend; WakeUp.
	h := ro.Handlers[0]
	if len(h.Body) != 3 {
		t.Fatalf("WR_RO_FAULT body = %d stmts, want 3", len(h.Body))
	}
	sus, ok := h.Body[1].(*ast.SuspendStmt)
	if !ok {
		t.Fatalf("stmt 1 = %T, want SuspendStmt", h.Body[1])
	}
	if sus.Cont.Name != "L" || sus.Target.Name.Name != "Cache_RO_To_RW" {
		t.Errorf("suspend = (%s, %s)", sus.Cont, sus.Target.Name)
	}
	if len(sus.Target.Args) != 1 {
		t.Errorf("suspend target args = %d, want 1", len(sus.Target.Args))
	}
	// Subroutine state has a CONT parameter.
	sub := prog.States[1]
	if len(sub.Params) != 1 || sub.Params[0].Type.Name != "CONT" {
		t.Errorf("subroutine params = %v", sub.Params)
	}
	// Resume statements present.
	var resumes int
	for _, h := range sub.Handlers {
		ast.Walk(h.Body, func(s ast.Stmt) {
			if _, ok := s.(*ast.ResumeStmt); ok {
				resumes++
			}
		})
	}
	if resumes != 2 {
		t.Errorf("resumes = %d, want 2", resumes)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
protocol P begin
  state S();
  message M;
end;
state P.S()
begin
  message M (id : ID; n : NODE; a : int)
  var x, y : int;
  begin
    x := 1;
    if (a = 1) then
      x := x + 2 * 3;
    else
      while (x < 10) do
        x := x + 1;
      end;
    endif;
    if (x >= 4 and not (y <> 0)) then
      print(x, y);
    endif;
    return;
  end;
end;
`
	prog, err := Parse("cf.tea", src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	h := prog.States[0].Handlers[0]
	if len(h.Locals) != 1 || len(h.Locals[0].Names) != 2 {
		t.Fatalf("locals = %v", h.Locals)
	}
	if len(h.Body) != 4 {
		t.Fatalf("body = %d stmts, want 4", len(h.Body))
	}
	ifs, ok := h.Body[1].(*ast.IfStmt)
	if !ok {
		t.Fatalf("stmt 1 = %T", h.Body[1])
	}
	if len(ifs.Else) != 1 {
		t.Fatalf("else = %d stmts", len(ifs.Else))
	}
	if _, ok := ifs.Else[0].(*ast.WhileStmt); !ok {
		t.Errorf("else[0] = %T, want WhileStmt", ifs.Else[0])
	}
	// Precedence: x + 2 * 3 parses as x + (2*3).
	as := ifs.Then[0].(*ast.AssignStmt)
	bin := as.RHS.(*ast.BinExpr)
	if bin.Op != token.PLUS {
		t.Errorf("top op = %v, want +", bin.Op)
	}
	if inner, ok := bin.Y.(*ast.BinExpr); !ok || inner.Op != token.STAR {
		t.Errorf("rhs = %s", ast.ExprString(bin.Y))
	}
}

func TestExitIsReturn(t *testing.T) {
	src := `
protocol P begin state S(); message M; end;
state P.S() begin
  message M (id : ID) begin
    exit;
  end;
end;
`
	prog, err := Parse("exit.tea", src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	if _, ok := prog.States[0].Handlers[0].Body[0].(*ast.ReturnStmt); !ok {
		t.Errorf("exit did not parse as return: %T", prog.States[0].Handlers[0].Body[0])
	}
}

func TestSuspendBareTarget(t *testing.T) {
	src := `
protocol P begin state S(); state W(C : CONT) transient; message M; end;
state P.S() begin
  message M (id : ID) begin
    suspend(L, W);
  end;
end;
state P.W(C : CONT) begin
  message M (id : ID) begin resume(C); end;
end;
`
	prog, err := Parse("bare.tea", src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	sus := prog.States[0].Handlers[0].Body[0].(*ast.SuspendStmt)
	if sus.Target.Name.Name != "W" || len(sus.Target.Args) != 0 {
		t.Errorf("suspend target = %s{%d args}", sus.Target.Name, len(sus.Target.Args))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing protocol", `state P.S() begin end;`, "expected protocol"},
		{"bad stmt", `protocol P begin end; state P.S() begin message M() begin 42; end; end;`, "expected statement"},
		{"suspend bad target", `protocol P begin end; state P.S() begin message M() begin suspend(L, 3+4); end; end;`, "suspend target"},
		{"missing semicolon", `protocol P begin end; state P.S() begin message M() begin x := 1 y := 2; end; end;`, `expected ";"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("e.tea", c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err.Error(), c.want)
			}
		})
	}
}

// TestPrintRoundTrip: parse → print → parse yields an identical printed form
// (fixed point of the formatter).
func TestPrintRoundTrip(t *testing.T) {
	for _, src := range []string{figure7} {
		p1, err := Parse("rt1.tea", src)
		if err != nil {
			t.Fatalf("parse 1: %v", err)
		}
		out1 := ast.Print(p1)
		p2, err := Parse("rt2.tea", out1)
		if err != nil {
			t.Fatalf("parse 2: %v\nsource:\n%s", err, out1)
		}
		out2 := ast.Print(p2)
		if out1 != out2 {
			t.Errorf("print not a fixed point:\n--- first\n%s\n--- second\n%s", out1, out2)
		}
	}
}

func TestParseEmptyProtocol(t *testing.T) {
	prog, err := Parse("empty.tea", "protocol Nil begin end;")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if prog.Protocol.Name.Name != "Nil" || len(prog.States) != 0 {
		t.Errorf("prog = %+v", prog)
	}
}

func TestStateExprInCall(t *testing.T) {
	src := `
protocol P begin state S(); state T(); message M; end;
state P.S() begin
  message M (id : ID; var info : INFO) begin
    SetState(info, T{});
  end;
end;
`
	prog, err := Parse("se.tea", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	call := prog.States[0].Handlers[0].Body[0].(*ast.CallStmt).Call
	if len(call.Args) != 2 {
		t.Fatalf("args = %d", len(call.Args))
	}
	if se, ok := call.Args[1].(*ast.StateExpr); !ok || se.Name.Name != "T" {
		t.Errorf("arg 1 = %s", ast.ExprString(call.Args[1]))
	}
}

// TestParseReportsTrailingLexErrors: a parse that stops early still lexes
// the rest of the text, so its diagnostics include every one ScanAll
// reports on the same text. (Mutation: without the loop in Parse that
// drains the lexer after parseProgram, the lexical errors after the stray
// "end" are lost and this test fails.)
func TestParseReportsTrailingLexErrors(t *testing.T) {
	src := "protocol P begin state S(); message M; end;\n" +
		"state P.S() begin end;\n" +
		"end; @ é \"open\n(* open"
	_, err := Parse("t.tea", src)
	var list *source.ErrorList
	if !errors.As(err, &list) {
		t.Fatalf("Parse error = %v, want a diagnostic list", err)
	}
	got := map[string]bool{}
	for _, d := range list.List {
		got[d.Error()] = true
	}
	if !got[`t.tea:3:1: unexpected "end" after states`] {
		t.Errorf("the parse does not stop at the stray end: %v", list)
	}
	var lexErrs source.ErrorList
	lexer.ScanAll(source.NewFile("t.tea", src), &lexErrs)
	if lexErrs.Len() != 4 {
		t.Fatalf("ScanAll reports %d diagnostics, want 4: %v", lexErrs.Len(), &lexErrs)
	}
	for _, d := range lexErrs.List {
		if !got[d.Error()] {
			t.Errorf("Parse does not report %q", d.Error())
		}
	}
}
