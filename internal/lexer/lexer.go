// Package lexer scans Teapot source text into tokens.
//
// Lexical structure follows the paper's examples: identifiers may contain
// underscores and embedded digits (Cache_RO_To_RW, GET_RO_RESP); comments are
// "--" to end of line (Modula/Murphi style, the paper's host syntax family)
// plus "//" line comments and "(* ... *)" block comments for convenience;
// string literals use double quotes; keywords are case-insensitive.
package lexer

import (
	"unicode/utf8"

	"teapot/internal/source"
	"teapot/internal/token"
)

// Token is a scanned lexeme.
type Token struct {
	Kind token.Kind
	Lit  string // literal text for IDENT, INT, STRING (decoded), ILLEGAL
	Pos  source.Pos
}

func (t Token) String() string {
	switch t.Kind {
	case token.IDENT, token.INT, token.ILLEGAL:
		return t.Lit
	case token.STRING:
		return "\"" + t.Lit + "\""
	}
	return t.Kind.String()
}

// Lexer scans one file. It tracks the current line and where it starts as
// it advances, so a token's position costs no search of the file's line
// table.
type Lexer struct {
	file      *source.File
	src       string
	off       int
	line      int // 1-based line of off
	lineStart int // offset of the first byte of that line
	errs      *source.ErrorList
}

// New builds a Lexer over a file, reporting errors to errs.
func New(file *source.File, errs *source.ErrorList) *Lexer {
	return &Lexer{file: file, src: file.Text, line: 1, errs: errs}
}

// ScanAll scans the entire file, always ending with an EOF token. The slice
// is sized once for a token every 4 bytes; the bundled sources average 5.5.
func ScanAll(file *source.File, errs *source.ErrorList) []Token {
	lx := New(file, errs)
	toks := make([]Token, 0, len(file.Text)/4+1)
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func (l *Lexer) errorf(off int, format string, args ...any) {
	l.errs.Add(l.file.Name, l.file.PosFor(off), format, args...)
}

func (l *Lexer) peek() byte {
	if l.off < len(l.src) {
		return l.src[l.off]
	}
	return 0
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n < len(l.src) {
		return l.src[l.off+n]
	}
	return 0
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// newline records that the byte at l.off is a newline the lexer is about to
// step over. Whitespace, block comments and a backslash-newline in a string
// literal step over one; a line comment stops before its newline, and a
// string literal ends at an unescaped one.
func (l *Lexer) newline() {
	l.line++
	l.lineStart = l.off + 1
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == '\n':
			l.newline()
			l.off++
		case c == ' ' || c == '\t' || c == '\r':
			l.off++
		case c == '-' && l.peekAt(1) == '-':
			for l.off < len(l.src) && l.src[l.off] != '\n' {
				l.off++
			}
		case c == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && l.src[l.off] != '\n' {
				l.off++
			}
		case c == '(' && l.peekAt(1) == '*':
			start := l.off
			l.off += 2
			depth := 1
			for l.off < len(l.src) && depth > 0 {
				if l.src[l.off] == '(' && l.peekAt(1) == '*' {
					depth++
					l.off += 2
				} else if l.src[l.off] == '*' && l.peekAt(1) == ')' {
					depth--
					l.off += 2
				} else {
					if l.src[l.off] == '\n' {
						l.newline()
					}
					l.off++
				}
			}
			if depth > 0 {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next scans and returns the next token.
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	start := l.off
	pos := source.Pos{Offset: start, Line: l.line, Col: start - l.lineStart + 1}
	if l.off >= len(l.src) {
		return Token{Kind: token.EOF, Pos: pos}
	}
	c := l.src[l.off]
	switch {
	case isLetter(c):
		for l.off < len(l.src) && (isLetter(l.src[l.off]) || isDigit(l.src[l.off])) {
			l.off++
		}
		lit := l.src[start:l.off]
		return Token{Kind: token.Lookup(lit), Lit: lit, Pos: pos}
	case isDigit(c):
		for l.off < len(l.src) && isDigit(l.src[l.off]) {
			l.off++
		}
		return Token{Kind: token.INT, Lit: l.src[start:l.off], Pos: pos}
	case c == '"':
		return l.scanString(pos)
	}
	l.off++
	mk := func(k token.Kind) Token { return Token{Kind: k, Pos: pos} }
	switch c {
	case '(':
		return mk(token.LPAREN)
	case ')':
		return mk(token.RPAREN)
	case '{':
		return mk(token.LBRACE)
	case '}':
		return mk(token.RBRACE)
	case ';':
		return mk(token.SEMICOLON)
	case ',':
		return mk(token.COMMA)
	case '.':
		return mk(token.DOT)
	case '+':
		return mk(token.PLUS)
	case '-':
		return mk(token.MINUS)
	case '*':
		return mk(token.STAR)
	case '/':
		return mk(token.SLASH)
	case '%':
		return mk(token.PERCENT)
	case '=':
		if l.peek() == '=' { // tolerate C-style ==
			l.off++
		}
		return mk(token.EQ)
	case ':':
		if l.peek() == '=' {
			l.off++
			return mk(token.ASSIGN)
		}
		return mk(token.COLON)
	case '<':
		switch l.peek() {
		case '=':
			l.off++
			return mk(token.LE)
		case '>':
			l.off++
			return mk(token.NEQ)
		}
		return mk(token.LT)
	case '>':
		if l.peek() == '=' {
			l.off++
			return mk(token.GE)
		}
		return mk(token.GT)
	case '!':
		if l.peek() == '=' {
			l.off++
			return mk(token.NEQ)
		}
		return mk(token.NOT)
	case '&':
		if l.peek() == '&' {
			l.off++
			return mk(token.AND)
		}
	case '|':
		if l.peek() == '|' {
			l.off++
			return mk(token.OR)
		}
	}
	// One ILLEGAL token per UTF-8 rune, spelled as written; a byte that
	// starts no valid rune is one token of its own, quoted as "\xc3".
	_, size := utf8.DecodeRuneInString(l.src[start:])
	l.off = start + size
	lit := l.src[start:l.off]
	l.errorf(start, "illegal character %q", lit)
	return Token{Kind: token.ILLEGAL, Lit: lit, Pos: pos}
}

// scanString scans a double-quoted literal. Its text is a slice of the
// source until an escape makes the two differ; from the first escape on it
// is built in buf.
func (l *Lexer) scanString(pos source.Pos) Token {
	start := l.off
	l.off++ // opening quote
	var buf []byte
	escaped := false
	text := func() string {
		if escaped {
			return string(buf)
		}
		return l.src[start+1 : l.off]
	}
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch c {
		case '"':
			lit := text()
			l.off++
			return Token{Kind: token.STRING, Lit: lit, Pos: pos}
		case '\\':
			if !escaped {
				buf = append(buf, l.src[start+1:l.off]...)
				escaped = true
			}
			l.off++
			if l.off >= len(l.src) {
				break
			}
			_, size := utf8.DecodeRuneInString(l.src[l.off:])
			switch esc := l.src[l.off : l.off+size]; esc {
			case "n":
				buf = append(buf, '\n')
			case "t":
				buf = append(buf, '\t')
			case `"`, `\`:
				buf = append(buf, esc...)
			default:
				l.errorf(l.off, "unknown escape \\%s", esc)
				buf = append(buf, esc...)
				if esc == "\n" { // the literal goes on on the next line
					l.newline()
				}
			}
			l.off += size
		case '\n':
			l.errorf(start, "unterminated string literal")
			return Token{Kind: token.ILLEGAL, Lit: text(), Pos: pos}
		default:
			if escaped {
				buf = append(buf, c)
			}
			l.off++
		}
	}
	l.errorf(start, "unterminated string literal")
	return Token{Kind: token.ILLEGAL, Lit: text(), Pos: pos}
}
