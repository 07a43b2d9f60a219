// Package parser implements a recursive-descent parser for the Teapot
// language (Appendix A of the PLDI '96 paper).
//
// The parser is deliberately liberal where the paper's own examples deviate
// from the appendix grammar:
//
//   - state headers may use parentheses or braces for their parameter lists
//     ("state Stache.Cache_RO_To_RW{C : CONT}" appears in Figure 8);
//   - argument lists accept "," or ";" separators;
//   - "exit" is accepted as a synonym for a bare "return" (every handler in
//     the paper ends with "exit;");
//   - keywords are case-insensitive ("Begin", "Suspend", "If ... Endif").
package parser

import (
	"slices"
	"strconv"

	"teapot/internal/ast"
	"teapot/internal/lexer"
	"teapot/internal/source"
	"teapot/internal/token"
)

// Parse parses a named Teapot source text into a Program. On error it
// returns a partial tree together with the accumulated diagnostics.
//
// Tokens are pulled from the lexer one at a time; none is kept once the
// parser has moved past it. A parse that stops before the end still lexes
// the rest of the text, so every lexical error is reported.
func Parse(name, src string) (*ast.Program, error) {
	file := source.NewFile(name, src)
	var errs source.ErrorList
	p := &parser{file: file, lx: lexer.New(file, &errs), errs: &errs}
	p.tok = p.lx.Next()
	prog := p.parseProgram()
	for p.tok.Kind != token.EOF {
		p.tok = p.lx.Next()
	}
	prog.File = file
	prog.Idents = p.nident
	errs.Sort()
	return prog, errs.Err()
}

type parser struct {
	file *source.File
	lx   *lexer.Lexer
	tok  lexer.Token // the current token
	pos  int         // tokens consumed so far: the progress check in parseStmts
	errs *source.ErrorList

	panicking bool // suppress cascading errors until resync

	idents []ast.Ident // allocated in blocks; newIdent hands them out
	nident int         // identifiers made so far: the next one's Ord

	// Lists under construction, innermost last: a list is built on the end
	// of its stack and copied out at its exact length by collect.
	params []*ast.Param
	stmts  []ast.Stmt
	exprs  []ast.Expr
}

// collect returns the elements of the stack from base on in a slice of
// their own (nil if there are none) and pops them.
func collect[T any](stack *[]T, base int) []T {
	s := *stack
	if len(s) == base {
		return nil
	}
	list := slices.Clone(s[base:])
	clear(s[base:])
	*stack = s[:base]
	return list
}

func (p *parser) cur() lexer.Token { return p.tok }

// next consumes the current token and returns it. EOF is never consumed.
func (p *parser) next() lexer.Token {
	t := p.tok
	if t.Kind != token.EOF {
		p.tok = p.lx.Next()
		p.pos++
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) errorf(pos source.Pos, format string, args ...any) {
	if p.panicking {
		return
	}
	p.errs.Add(p.file.Name, pos, format, args...)
	p.panicking = true
}

func (p *parser) expect(k token.Kind) lexer.Token {
	if p.at(k) {
		p.panicking = false
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %q, found %q", k.String(), p.cur().String())
	return lexer.Token{Kind: k, Pos: p.cur().Pos}
}

// sync skips tokens until one of the kinds (or EOF) is current.
func (p *parser) sync(kinds ...token.Kind) {
	for !p.at(token.EOF) {
		for _, k := range kinds {
			if p.at(k) {
				p.panicking = false
				return
			}
		}
		p.next()
	}
}

func (p *parser) ident() *ast.Ident {
	return p.newIdent(p.expect(token.IDENT))
}

// newIdent builds the identifier node for a token. Identifiers are the most
// numerous nodes, so they are carved from blocks of identBlock instead of
// being allocated one by one.
func (p *parser) newIdent(t lexer.Token) *ast.Ident {
	const identBlock = 64
	if len(p.idents) == 0 {
		p.idents = make([]ast.Ident, identBlock)
	}
	id := &p.idents[0]
	p.idents = p.idents[1:]
	*id = ast.Ident{Name: t.Lit, NamePos: t.Pos, Ord: p.nident}
	p.nident++
	return id
}

// typeIdent parses a type name. Keywords are allowed here so that support
// modules can declare parameters of type STATE, MESSAGE, etc. (the paper's
// SetState prototype takes a state value).
func (p *parser) typeIdent() *ast.Ident {
	if p.cur().Kind.IsKeyword() {
		return p.newIdent(p.next())
	}
	return p.ident()
}

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	for p.at(token.MODULE) {
		prog.Modules = append(prog.Modules, p.parseModule())
	}
	if p.at(token.PROTOCOL) {
		prog.Protocol = p.parseProtocol()
	} else {
		p.errorf(p.cur().Pos, "expected protocol declaration, found %q", p.cur().String())
		p.sync(token.STATE, token.PROTOCOL)
		if p.at(token.PROTOCOL) {
			prog.Protocol = p.parseProtocol()
		}
	}
	for p.at(token.STATE) {
		prog.States = append(prog.States, p.parseState())
	}
	if !p.at(token.EOF) {
		p.errorf(p.cur().Pos, "unexpected %q after states", p.cur().String())
	}
	return prog
}

func (p *parser) parseModule() *ast.Module {
	m := &ast.Module{ModulePos: p.expect(token.MODULE).Pos}
	m.Name = p.ident()
	p.expect(token.BEGIN)
	for !p.at(token.END) && !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.TYPE:
			d := &ast.TypeDecl{TypePos: p.next().Pos, Name: p.ident()}
			p.expect(token.SEMICOLON)
			m.Decls = append(m.Decls, d)
		case token.CONST:
			d := &ast.ModConstDecl{ConstPos: p.next().Pos, Name: p.ident()}
			p.expect(token.COLON)
			d.Type = p.typeIdent()
			p.expect(token.SEMICOLON)
			m.Decls = append(m.Decls, d)
		case token.FUNCTION:
			d := &ast.SubDecl{DeclPos: p.next().Pos, Name: p.ident()}
			d.Params = p.parseParamList(token.LPAREN, token.RPAREN)
			p.expect(token.COLON)
			d.Result = p.typeIdent()
			p.expect(token.SEMICOLON)
			m.Decls = append(m.Decls, d)
		case token.PROCEDURE:
			d := &ast.SubDecl{DeclPos: p.next().Pos, Name: p.ident()}
			d.Params = p.parseParamList(token.LPAREN, token.RPAREN)
			p.expect(token.SEMICOLON)
			m.Decls = append(m.Decls, d)
		default:
			p.errorf(p.cur().Pos, "expected module declaration, found %q", p.cur().String())
			p.sync(token.TYPE, token.CONST, token.FUNCTION, token.PROCEDURE, token.END)
		}
	}
	p.expect(token.END)
	p.expect(token.SEMICOLON)
	return m
}

func (p *parser) parseProtocol() *ast.Protocol {
	pr := &ast.Protocol{ProtoPos: p.expect(token.PROTOCOL).Pos}
	pr.Name = p.ident()
	p.expect(token.BEGIN)
	for !p.at(token.END) && !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.VAR:
			d := &ast.ProtVarDecl{VarPos: p.next().Pos, Name: p.ident()}
			p.expect(token.COLON)
			d.Type = p.typeIdent()
			p.expect(token.SEMICOLON)
			pr.Decls = append(pr.Decls, d)
		case token.CONST:
			d := &ast.ProtConstDecl{ConstPos: p.next().Pos, Name: p.ident()}
			p.expect(token.ASSIGN)
			d.Value = p.parseExpr()
			p.expect(token.SEMICOLON)
			pr.Decls = append(pr.Decls, d)
		case token.STATE:
			d := &ast.StateDecl{StatePos: p.next().Pos, Name: p.ident()}
			if p.at(token.LPAREN) {
				d.Params = p.parseParamList(token.LPAREN, token.RPAREN)
			} else if p.at(token.LBRACE) {
				d.Params = p.parseParamList(token.LBRACE, token.RBRACE)
			}
			d.Transient = p.accept(token.TRANSIENT)
			p.expect(token.SEMICOLON)
			pr.Decls = append(pr.Decls, d)
		case token.MESSAGE:
			d := &ast.MessageDecl{MsgPos: p.next().Pos, Name: p.ident()}
			p.expect(token.SEMICOLON)
			pr.Decls = append(pr.Decls, d)
		default:
			p.errorf(p.cur().Pos, "expected protocol declaration, found %q", p.cur().String())
			p.sync(token.VAR, token.CONST, token.STATE, token.MESSAGE, token.END)
		}
	}
	p.expect(token.END)
	p.expect(token.SEMICOLON)
	return pr
}

// parseParamList parses "(a, b : T; var c : U)" (or the brace form). A
// missing list yields nil.
func (p *parser) parseParamList(open, close token.Kind) []*ast.Param {
	if !p.accept(open) {
		return nil
	}
	base := len(p.params)
	for !p.at(close) && !p.at(token.EOF) {
		g := &ast.Param{}
		if p.at(token.VAR) {
			g.VarPos = p.next().Pos
			g.ByRef = true
		}
		g.Names = append(g.Names, p.ident())
		for p.accept(token.COMMA) {
			g.Names = append(g.Names, p.ident())
		}
		p.expect(token.COLON)
		g.Type = p.typeIdent()
		p.params = append(p.params, g)
		if !p.accept(token.SEMICOLON) {
			break
		}
	}
	p.expect(close)
	return collect(&p.params, base)
}

func (p *parser) parseState() *ast.State {
	s := &ast.State{StatePos: p.expect(token.STATE).Pos}
	first := p.ident()
	if p.accept(token.DOT) {
		s.Proto = first
		s.Name = p.ident()
	} else {
		s.Name = first
	}
	if p.at(token.LPAREN) {
		s.Params = p.parseParamList(token.LPAREN, token.RPAREN)
	} else if p.at(token.LBRACE) {
		s.Params = p.parseParamList(token.LBRACE, token.RBRACE)
	}
	p.expect(token.BEGIN)
	for p.at(token.MESSAGE) {
		s.Handlers = append(s.Handlers, p.parseHandler())
	}
	p.expect(token.END)
	p.expect(token.SEMICOLON)
	return s
}

func (p *parser) parseHandler() *ast.Handler {
	h := &ast.Handler{MsgPos: p.expect(token.MESSAGE).Pos}
	h.Name = p.ident()
	if p.at(token.LPAREN) {
		h.Params = p.parseParamList(token.LPAREN, token.RPAREN)
	}
	// Optional block-decls: var a, b : T; c : U; ... begin
	if p.at(token.VAR) {
		p.next()
		for p.at(token.IDENT) {
			g := &ast.Param{}
			g.Names = append(g.Names, p.ident())
			for p.accept(token.COMMA) {
				g.Names = append(g.Names, p.ident())
			}
			p.expect(token.COLON)
			g.Type = p.typeIdent()
			p.expect(token.SEMICOLON)
			h.Locals = append(h.Locals, g)
		}
	}
	p.expect(token.BEGIN)
	h.Body = p.parseStmts(token.END)
	p.expect(token.END)
	p.expect(token.SEMICOLON)
	return h
}

// stmtTerm reports whether the current token terminates a statement list.
func (p *parser) stmtTerm(terms ...token.Kind) bool {
	for _, t := range terms {
		if p.at(t) {
			return true
		}
	}
	return p.at(token.EOF)
}

func (p *parser) parseStmts(terms ...token.Kind) []ast.Stmt {
	base := len(p.stmts)
	for !p.stmtTerm(terms...) {
		before := p.pos
		s := p.parseStmt()
		if s != nil {
			p.stmts = append(p.stmts, s)
		}
		// Statement separator: required between statements, tolerated
		// (optional) before a terminator.
		if !p.accept(token.SEMICOLON) && !p.stmtTerm(terms...) {
			p.errorf(p.cur().Pos, "expected \";\", found %q", p.cur().String())
			p.sync(append([]token.Kind{token.SEMICOLON}, terms...)...)
			p.accept(token.SEMICOLON)
		}
		if p.pos == before { // no progress; bail out of the list
			p.next()
		}
	}
	return collect(&p.stmts, base)
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.cur().Kind {
	case token.IF:
		s := &ast.IfStmt{IfPos: p.next().Pos}
		p.expect(token.LPAREN)
		s.Cond = p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.THEN)
		s.Then = p.parseStmts(token.ELSE, token.ENDIF)
		if p.accept(token.ELSE) {
			s.Else = p.parseStmts(token.ENDIF)
		}
		p.expect(token.ENDIF)
		return s
	case token.WHILE:
		s := &ast.WhileStmt{WhilePos: p.next().Pos}
		p.expect(token.LPAREN)
		s.Cond = p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.DO)
		s.Body = p.parseStmts(token.END)
		p.expect(token.END)
		return s
	case token.SUSPEND:
		s := &ast.SuspendStmt{SuspendPos: p.next().Pos}
		p.expect(token.LPAREN)
		s.Cont = p.ident()
		p.expect(token.COMMA)
		target := p.parseExpr()
		switch t := target.(type) {
		case *ast.StateExpr:
			s.Target = t
		case *ast.Name:
			// "Suspend(L, AwaitM)" without braces: a state with no args.
			s.Target = &ast.StateExpr{Name: t.Ident}
		default:
			p.errorf(target.Pos(), "suspend target must be a state constructor, found %s", ast.ExprString(target))
			s.Target = &ast.StateExpr{Name: p.newIdent(lexer.Token{Lit: "<error>", Pos: target.Pos()})}
		}
		p.expect(token.RPAREN)
		return s
	case token.RESUME:
		s := &ast.ResumeStmt{ResumePos: p.next().Pos}
		p.expect(token.LPAREN)
		s.Cont = p.parseExpr()
		p.expect(token.RPAREN)
		return s
	case token.RETURN:
		s := &ast.ReturnStmt{ReturnPos: p.next().Pos}
		if !p.at(token.SEMICOLON) && !p.stmtTerm(token.END, token.ELSE, token.ENDIF) {
			s.Value = p.parseExpr()
		}
		return s
	case token.PRINT:
		s := &ast.PrintStmt{PrintPos: p.next().Pos}
		p.expect(token.LPAREN)
		s.Args = p.parseExprList(token.RPAREN)
		p.expect(token.RPAREN)
		return s
	case token.IDENT:
		id := p.ident()
		if id.Name == "exit" && (p.at(token.SEMICOLON) || p.stmtTerm(token.END, token.ELSE, token.ENDIF)) {
			return &ast.ReturnStmt{ReturnPos: id.NamePos}
		}
		switch p.cur().Kind {
		case token.ASSIGN:
			p.next()
			return &ast.AssignStmt{LHS: id, RHS: p.parseExpr()}
		case token.LPAREN:
			p.next()
			args := p.parseExprList(token.RPAREN)
			p.expect(token.RPAREN)
			return &ast.CallStmt{Call: &ast.CallExpr{Func: id, Args: args}}
		}
		p.errorf(p.cur().Pos, "expected \":=\" or \"(\" after %q, found %q", id.Name, p.cur().String())
		return nil
	}
	p.errorf(p.cur().Pos, "expected statement, found %q", p.cur().String())
	p.next()
	return nil
}

// parseExprList parses a possibly empty list of expressions separated by ","
// or ";" up to (not consuming) the closing token.
func (p *parser) parseExprList(close token.Kind) []ast.Expr {
	base := len(p.exprs)
	for !p.at(close) && !p.at(token.EOF) {
		p.exprs = append(p.exprs, p.parseExpr())
		if !p.accept(token.COMMA) && !p.accept(token.SEMICOLON) {
			break
		}
	}
	return collect(&p.exprs, base)
}

func (p *parser) parseExpr() ast.Expr { return p.parseBin(1) }

func (p *parser) parseBin(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		op := p.cur().Kind
		prec := op.Precedence()
		if prec < minPrec {
			return x
		}
		opPos := p.next().Pos
		y := p.parseBin(prec + 1)
		x = &ast.BinExpr{Op: op, OpPos: opPos, X: x, Y: y}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.cur().Kind {
	case token.NOT, token.KWNOT:
		t := p.next()
		return &ast.UnExpr{Op: token.KWNOT, OpPos: t.Pos, X: p.parseUnary()}
	case token.MINUS:
		t := p.next()
		return &ast.UnExpr{Op: token.MINUS, OpPos: t.Pos, X: p.parseUnary()}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() ast.Expr {
	switch p.cur().Kind {
	case token.INT:
		t := p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			v = 0
			p.errorf(t.Pos, "bad integer literal %q", t.Lit)
		}
		return &ast.IntLit{LitPos: t.Pos, Value: v}
	case token.TRUE:
		return &ast.BoolLit{LitPos: p.next().Pos, Value: true}
	case token.FALSE:
		return &ast.BoolLit{LitPos: p.next().Pos, Value: false}
	case token.STRING:
		t := p.next()
		return &ast.StringLit{LitPos: t.Pos, Value: t.Lit}
	case token.LPAREN:
		t := p.next()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.ParenExpr{LPos: t.Pos, X: x}
	case token.IDENT:
		id := p.ident()
		switch p.cur().Kind {
		case token.LPAREN:
			p.next()
			args := p.parseExprList(token.RPAREN)
			p.expect(token.RPAREN)
			return &ast.CallExpr{Func: id, Args: args}
		case token.LBRACE:
			p.next()
			args := p.parseExprList(token.RBRACE)
			p.expect(token.RBRACE)
			return &ast.StateExpr{Name: id, Args: args}
		}
		return &ast.Name{Ident: id}
	}
	t := p.cur()
	p.errorf(t.Pos, "expected expression, found %q", t.String())
	p.next()
	return &ast.IntLit{LitPos: t.Pos, Value: 0}
}
