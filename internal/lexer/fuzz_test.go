package lexer_test

import (
	"strings"
	"testing"

	"teapot/internal/lexer"
	"teapot/internal/protocols"
	"teapot/internal/source"
	"teapot/internal/token"
)

// keywordsByName is the reference keyword table Lookup must agree with:
// every keyword kind under its canonical (lower-case) spelling.
var keywordsByName = func() map[string]token.Kind {
	m := map[string]token.Kind{}
	for k := token.Kind(0); k < 100; k++ {
		if k.IsKeyword() {
			m[k.String()] = k
		}
	}
	return m
}()

// lookupRef is token.Lookup as the reference spells it: lower-case with the
// standard library, then look the spelling up.
func lookupRef(s string) token.Kind {
	if k, ok := keywordsByName[strings.ToLower(s)]; ok {
		return k
	}
	return token.IDENT
}

// FuzzLex: for any text, ScanAll ends in exactly one EOF, token offsets
// strictly increase, every position the lexer tracks as it advances is the
// one File.PosFor computes from the offset, and keyword lookup agrees with
// a strings.ToLower map lookup on every identifier (and on the whole text).
// The seeds are the bundled sources, the FuzzCompile seeds and the lexer's
// multi-line cases, and run as ordinary subtests.
func FuzzLex(f *testing.F) {
	for _, e := range protocols.All() {
		f.Add(e.Config.Source)
	}
	for _, s := range []string{
		tiny,
		"a é b\n\xc3 (* x\n(* y *)\n*) \"s\\\nt\" z\r\nw -- c\n// d\nBeGiN",
		"\"unterminated\nx", "(* open", "\"a\\", "&|",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file := source.NewFile("fuzz.tea", src)
		var errs source.ErrorList
		toks := lexer.ScanAll(file, &errs)
		if len(toks) == 0 || toks[len(toks)-1].Kind != token.EOF {
			t.Fatalf("scan does not end in EOF: %v", toks)
		}
		for i, tok := range toks {
			if tok.Kind == token.EOF && i != len(toks)-1 {
				t.Fatalf("EOF at token %d of %d", i, len(toks))
			}
			if i > 0 && tok.Pos.Offset <= toks[i-1].Pos.Offset {
				t.Fatalf("token %d (%v) at offset %d, after token %d at %d", i, tok, tok.Pos.Offset, i-1, toks[i-1].Pos.Offset)
			}
			if want := file.PosFor(tok.Pos.Offset); tok.Pos != want {
				t.Fatalf("token %d (%v) at %+v, PosFor gives %+v", i, tok, tok.Pos, want)
			}
			if tok.Kind == token.IDENT || tok.Kind.IsKeyword() {
				if want := lookupRef(tok.Lit); tok.Kind != want || token.Lookup(tok.Lit) != want {
					t.Fatalf("%q scanned as %v, Lookup gives %v, want %v", tok.Lit, tok.Kind, token.Lookup(tok.Lit), want)
				}
			}
		}
		if got, want := token.Lookup(src), lookupRef(src); got != want {
			t.Fatalf("Lookup(%q) = %v, want %v", src, got, want)
		}
	})
}

// tiny is the small protocol FuzzCompile is seeded with besides the bundled
// sources.
const tiny = `
protocol T begin
  state A();
  state B(C : CONT) transient;
  message GO;
  message OK;
end;
state T.A() begin
  message GO (id : ID; var info : INFO; src : NODE)
  begin
    Send(src, OK, id);
    Suspend(L, B{L});
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Drop(); end;
end;
state T.B(C : CONT) begin
  message OK (id : ID; var info : INFO; src : NODE) begin Resume(C); end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
`
