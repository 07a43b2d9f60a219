package token

import (
	"strings"
	"testing"
)

// TestLookupAllocs: Lookup allocates nothing, for keywords in any case and
// for identifiers short and long. Every keyword is found in lower, upper and
// title case, which also fails if a keyword outgrows maxKeywordLen.
func TestLookupAllocs(t *testing.T) {
	var spellings []string
	for k := keywordStart + 1; k < keywordEnd; k++ {
		name := k.String()
		for _, s := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			if got := Lookup(s); got != k {
				t.Errorf("Lookup(%q) = %v, want %v", s, got, k)
			}
			spellings = append(spellings, s)
		}
	}
	spellings = append(spellings, "x", "Cache_RO", "GET_RO_REQ", "Cache_RO_To_RW", "Home_Exclusive_Waiting")
	for _, s := range spellings {
		if n := testing.AllocsPerRun(100, func() { Lookup(s) }); n != 0 {
			t.Errorf("Lookup(%q) allocates %v times, want 0", s, n)
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	cases := map[string]Kind{
		"begin":   BEGIN,
		"Begin":   BEGIN,
		"SUSPEND": SUSPEND,
		"Resume":  RESUME,
		"endif":   ENDIF,
		"EndIf":   ENDIF,
		"and":     KWAND,
		"NOT":     KWNOT,
		"foo":     IDENT,
		"Cache":   IDENT,
		"begins":  IDENT, // prefix of a keyword is not a keyword
	}
	for s, want := range cases {
		if got := Lookup(s); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestPrecedenceOrdering(t *testing.T) {
	// or < and < comparison < additive < multiplicative.
	chains := [][]Kind{
		{OR, AND, EQ, PLUS, STAR},
		{KWOR, KWAND, LT, MINUS, SLASH},
	}
	for _, chain := range chains {
		for i := 1; i < len(chain); i++ {
			if chain[i-1].Precedence() >= chain[i].Precedence() {
				t.Errorf("%v (%d) should bind looser than %v (%d)",
					chain[i-1], chain[i-1].Precedence(), chain[i], chain[i].Precedence())
			}
		}
	}
	for _, k := range []Kind{IDENT, LPAREN, BEGIN, ASSIGN, SEMICOLON} {
		if k.Precedence() != 0 {
			t.Errorf("%v should have no precedence", k)
		}
	}
}

func TestIsKeyword(t *testing.T) {
	for _, k := range []Kind{MODULE, BEGIN, END, SUSPEND, RESUME, TRUE, FALSE} {
		if !k.IsKeyword() {
			t.Errorf("%v should be a keyword", k)
		}
	}
	for _, k := range []Kind{IDENT, INT, STRING, PLUS, EOF, ILLEGAL} {
		if k.IsKeyword() {
			t.Errorf("%v should not be a keyword", k)
		}
	}
}

func TestStrings(t *testing.T) {
	if BEGIN.String() != "begin" || ASSIGN.String() != ":=" || NEQ.String() != "<>" {
		t.Error("canonical spellings wrong")
	}
	if Kind(9999).String() != "UNKNOWN" {
		t.Error("unknown kind string")
	}
}
