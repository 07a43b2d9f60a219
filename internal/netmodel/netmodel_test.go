package netmodel

import (
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Model
	}{
		{"", Model{}},
		{"none", Model{}},
		{"drop=1,dup=1,reorder=2", Model{Reorder: 2, MaxDrops: 1, MaxDups: 1}},
		{" drop=2 , dup=1 ", Model{MaxDrops: 2, MaxDups: 1}},
		{"delay=1,reorder=0", Model{Delay: 1}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestParseErrors: each refusal names what it refuses. From drop=0x10 on
// the rows are what a lenient reader would take: a value read only as far
// as it parses (drop=0x10 as drop=0, a perfect network), a second value for
// a key. The last rows are the keys of faults no traffic takes.
func TestParseErrors(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"drop", `"drop" is not key=value`},
		{"drop=x", `bad value "x" for drop`},
		{"bogus=1", `unknown key "bogus" (known: reorder, delay, drop, dup)`},
		{"drop=-1", "drop must be >= 0"},
		{"delay=-2", "delay must be >= 0"},
		{"drop=0x10", `bad value "0x10" for drop`},
		{"drop=1x", `bad value "1x" for drop`},
		{"drop=1.5", `bad value "1.5" for drop`},
		{"drop=1,drop=2", "drop given twice"},
		{"corrupt=1", `unknown key "corrupt"`},
		{"rate=0.5", `unknown key "rate"`},
	} {
		if _, err := Parse(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q): error %v, want one containing %q", c.in, err, c.want)
		}
	}
}

// FuzzNetModel: the -net flag is read from the command line and from
// reproducer files, so every input must give an error that says it is the
// fault model's, or a model that String renders back to itself.
func FuzzNetModel(f *testing.F) {
	for _, s := range []string{"", "none", "drop=1,dup=1,reorder=2", " drop=2 , dup=1 ",
		"delay=1,reorder=0", "reorder=3", "drop=0x10", "drop=1x", "drop=1.5", "dup=1abc",
		"delay=-1", "drop=1,drop=2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := Parse(s)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "netmodel: ") {
				t.Fatalf("Parse(%q): unnamed error %v", s, err)
			}
			return
		}
		if back, err := Parse(m.String()); err != nil || back != m {
			t.Fatalf("Parse(%q) = %+v renders as %q, which parses to %+v (err %v)", s, m, m.String(), back, err)
		}
	})
}

func TestStringRoundTrip(t *testing.T) {
	for _, in := range []string{"", "drop=1,dup=1,reorder=2", "dup=3,delay=2"} {
		m, err := Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(m.String())
		if err != nil {
			t.Fatalf("Parse(%q.String()=%q): %v", in, m.String(), err)
		}
		if back != m {
			t.Errorf("round trip %q -> %q -> %+v, want %+v", in, m.String(), back, m)
		}
	}
}

func TestEffectiveReorder(t *testing.T) {
	m := Model{Reorder: 1, Delay: 2}
	if got := m.EffectiveReorder(); got != 3 {
		t.Errorf("EffectiveReorder = %d, want 3", got)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	m := Model{MaxDrops: 3, MaxDups: 2, Delay: 1}
	a, b := NewInjector(m, 42), NewInjector(m, 42)
	count := map[Fault]int{}
	for i := 0; i < 200; i++ {
		fa, fb := a.Next(), b.Next()
		if fa != fb {
			t.Fatalf("same seed diverged at send %d: %v vs %v", i, fa, fb)
		}
		count[fa]++
	}
	if count[FaultDrop] > m.MaxDrops || count[FaultDup] > m.MaxDups {
		t.Errorf("budgets exceeded: drops=%d dups=%d", count[FaultDrop], count[FaultDup])
	}
	if count[FaultNone] == 200 {
		t.Error("200 sends at DefaultRate injected nothing")
	}
}

func TestInjectorInactive(t *testing.T) {
	if inj := NewInjector(Model{Reorder: 3}, 1); inj != nil {
		t.Error("reorder-only model should not build an injector")
	}
	var nilInj *Injector
	if f := nilInj.Next(); f != FaultNone {
		t.Errorf("nil injector Next = %v", f)
	}
}
