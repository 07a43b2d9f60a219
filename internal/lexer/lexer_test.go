package lexer

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"teapot/internal/source"
	"teapot/internal/token"
)

func scan(t *testing.T, src string) []Token {
	t.Helper()
	var errs source.ErrorList
	toks := ScanAll(source.NewFile("test.tea", src), &errs)
	if err := errs.Err(); err != nil {
		t.Fatalf("scan %q: %v", src, err)
	}
	return toks
}

func kinds(toks []Token) []token.Kind {
	var ks []token.Kind
	for _, t := range toks {
		ks = append(ks, t.Kind)
	}
	return ks
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	for _, src := range []string{"begin", "Begin", "BEGIN", "bEgIn"} {
		toks := scan(t, src)
		if toks[0].Kind != token.BEGIN {
			t.Errorf("%q scanned as %v, want begin", src, toks[0].Kind)
		}
	}
}

func TestIdentifiers(t *testing.T) {
	toks := scan(t, "Cache_RO_To_RW GET_RO_RESP x1 _tmp")
	want := []string{"Cache_RO_To_RW", "GET_RO_RESP", "x1", "_tmp"}
	for i, w := range want {
		if toks[i].Kind != token.IDENT || toks[i].Lit != w {
			t.Errorf("token %d = %v %q, want IDENT %q", i, toks[i].Kind, toks[i].Lit, w)
		}
	}
}

func TestPunctuationAndOperators(t *testing.T) {
	src := "( ) { } ; : , . := + - * / % = <> < <= > >= && || ! != =="
	toks := scan(t, src)
	want := []token.Kind{
		token.LPAREN, token.RPAREN, token.LBRACE, token.RBRACE,
		token.SEMICOLON, token.COLON, token.COMMA, token.DOT, token.ASSIGN,
		token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT,
		token.EQ, token.NEQ, token.LT, token.LE, token.GT, token.GE,
		token.AND, token.OR, token.NOT, token.NEQ, token.EQ, token.EOF,
	}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Errorf("kinds = %v, want %v", kinds(toks), want)
	}
}

func TestComments(t *testing.T) {
	src := `x -- line comment
y // other comment
(* block (* nested *) comment *) z`
	toks := scan(t, src)
	want := []string{"x", "y", "z"}
	for i, w := range want {
		if toks[i].Lit != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Lit, w)
		}
	}
}

func TestStringLiterals(t *testing.T) {
	toks := scan(t, `"Invalid msg %s to Cache_RO" "a\nb\"c"`)
	if toks[0].Kind != token.STRING || toks[0].Lit != "Invalid msg %s to Cache_RO" {
		t.Errorf("string 0 = %v %q", toks[0].Kind, toks[0].Lit)
	}
	if toks[1].Lit != "a\nb\"c" {
		t.Errorf("string 1 = %q", toks[1].Lit)
	}
}

func TestUnterminatedString(t *testing.T) {
	var errs source.ErrorList
	ScanAll(source.NewFile("t", `"abc`), &errs)
	if errs.Len() == 0 {
		t.Fatal("expected error for unterminated string")
	}
}

func TestIllegalCharacter(t *testing.T) {
	var errs source.ErrorList
	toks := ScanAll(source.NewFile("t", "a @ b"), &errs)
	if errs.Len() == 0 {
		t.Fatal("expected error for @")
	}
	if toks[1].Kind != token.ILLEGAL {
		t.Errorf("token 1 = %v, want ILLEGAL", toks[1].Kind)
	}
}

// TestIllegalRunes: a character outside the language is one ILLEGAL token
// per UTF-8 rune, spelled as written, and a byte that starts no rune is one
// token quoted as a hex escape.
func TestIllegalRunes(t *testing.T) {
	cases := []struct {
		src, lit, diag string
	}{
		{"a é b", "é", `t:1:3: illegal character "é"`},
		{"a 中 b", "中", `t:1:3: illegal character "中"`},
		{"a \xc3 b", "\xc3", `t:1:3: illegal character "\xc3"`},
		{"a \xff b", "\xff", `t:1:3: illegal character "\xff"`},
	}
	for _, c := range cases {
		var errs source.ErrorList
		toks := ScanAll(source.NewFile("t", c.src), &errs)
		want := []token.Kind{token.IDENT, token.ILLEGAL, token.IDENT, token.EOF}
		if !reflect.DeepEqual(kinds(toks), want) {
			t.Errorf("%q: kinds = %v, want %v", c.src, kinds(toks), want)
			continue
		}
		if toks[1].Lit != c.lit {
			t.Errorf("%q: ILLEGAL token spelled %q, want %q", c.src, toks[1].Lit, c.lit)
		}
		if got := errs.Error(); got != c.diag {
			t.Errorf("%q: diagnostics %q, want %q", c.src, got, c.diag)
		}
		if b := toks[2]; b.Pos.Offset != len(c.src)-1 || b.Pos.Col != len(c.src) {
			t.Errorf("%q: b at %v (offset %d)", c.src, b.Pos, b.Pos.Offset)
		}
	}
}

func TestPositions(t *testing.T) {
	toks := scan(t, "a\n  bb\nccc")
	checks := []struct{ i, line, col int }{{0, 1, 1}, {1, 2, 3}, {2, 3, 1}}
	for _, c := range checks {
		if toks[c.i].Pos.Line != c.line || toks[c.i].Pos.Col != c.col {
			t.Errorf("token %d at %v, want %d:%d", c.i, toks[c.i].Pos, c.line, c.col)
		}
	}
}

func TestIntLiterals(t *testing.T) {
	toks := scan(t, "0 42 100000")
	for i, w := range []string{"0", "42", "100000"} {
		if toks[i].Kind != token.INT || toks[i].Lit != w {
			t.Errorf("token %d = %v %q, want INT %q", i, toks[i].Kind, toks[i].Lit, w)
		}
	}
}

func TestSuspendResumeKeywords(t *testing.T) {
	toks := scan(t, "Suspend(L, S{L}); Resume(C);")
	want := []token.Kind{
		token.SUSPEND, token.LPAREN, token.IDENT, token.COMMA, token.IDENT,
		token.LBRACE, token.IDENT, token.RBRACE, token.RPAREN, token.SEMICOLON,
		token.RESUME, token.LPAREN, token.IDENT, token.RPAREN, token.SEMICOLON,
		token.EOF,
	}
	if !reflect.DeepEqual(kinds(toks), want) {
		t.Errorf("kinds = %v\nwant    %v", kinds(toks), want)
	}
}

// TestEOFAlwaysLast checks every scan ends in exactly one EOF.
func TestEOFAlwaysLast(t *testing.T) {
	for _, src := range []string{"", " ", "-- only comment", "a b c", "begin end"} {
		toks := scan(t, src)
		if toks[len(toks)-1].Kind != token.EOF {
			t.Errorf("scan(%q) last token %v", src, toks[len(toks)-1].Kind)
		}
		for _, tk := range toks[:len(toks)-1] {
			if tk.Kind == token.EOF {
				t.Errorf("scan(%q): interior EOF", src)
			}
		}
	}
}

// Property: scanning the joined spellings of scanned identifier/keyword/int
// tokens reproduces the same token sequence (lexer idempotence on its own
// output for whitespace-insensitive token classes).
func TestRescanProperty(t *testing.T) {
	alphabet := []string{"begin", "end", "state", "42", "x", "Cache_RO", "(", ")", ";", ":=", "+", "<=", "{", "}", `"s"`}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var parts []string
		for i := 0; i < int(n%32); i++ {
			parts = append(parts, alphabet[rng.Intn(len(alphabet))])
		}
		src := strings.Join(parts, " ")
		var errs1, errs2 source.ErrorList
		t1 := ScanAll(source.NewFile("a", src), &errs1)
		// Re-render and re-scan.
		var sb strings.Builder
		for _, tk := range t1 {
			if tk.Kind == token.EOF {
				break
			}
			sb.WriteString(tk.String())
			sb.WriteByte(' ')
		}
		t2 := ScanAll(source.NewFile("b", sb.String()), &errs2)
		if len(t1) != len(t2) {
			return false
		}
		for i := range t1 {
			if t1[i].Kind != t2[i].Kind || t1[i].Lit != t2[i].Lit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
