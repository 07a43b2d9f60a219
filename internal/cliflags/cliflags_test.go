package cliflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"teapot/internal/netmodel"
	"teapot/internal/protocols"
)

// TestRunnableNamesInSync: the static help list must be exactly the set of
// registry entries protocols.Spec accepts, in registry order.
func TestRunnableNamesInSync(t *testing.T) {
	var want []string
	for _, e := range protocols.All() {
		if _, err := protocols.Spec(e.Name, 2, 1); err == nil {
			want = append(want, e.Name)
		}
	}
	if got := RunnableNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("RunnableNames() = %v, want %v", got, want)
	}
}

func TestNetFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	n := AddNet(fs)
	if err := fs.Parse([]string{"-net", "drop=1,dup=2,reorder=1"}); err != nil {
		t.Fatal(err)
	}
	want := netmodel.Model{MaxDrops: 1, MaxDups: 2, Reorder: 1}
	if n.Model != want {
		t.Errorf("parsed %+v, want %+v", n.Model, want)
	}
	if err := fs.Parse([]string{"-net", "bogus=1"}); err == nil {
		t.Error("bad -net value accepted")
	}
}

func TestRunSpec(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	r := AddRun(fs, "stache", 2, 1)
	if err := fs.Parse([]string{"-proto", "stache-ft", "-net", "drop=1", "-workers", "3", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	spec, err := r.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Proto == nil || spec.Support == nil || spec.Events == nil {
		t.Fatal("spec missing protocol wiring")
	}
	if spec.Net.MaxDrops != 1 || spec.Workers != 3 || spec.Seed != 9 {
		t.Errorf("flags not threaded: %+v", spec)
	}
	*r.Proto = "no-such-proto"
	if _, err := r.Spec(); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestSeedZeroDerives: -seed 0 must resolve to a stable derived seed, not
// the literal zero, and the derivation must depend on the run shape.
func TestSeedZeroDerives(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	r := AddRun(fs, "stache", 2, 1)
	if err := fs.Parse([]string{"-seed", "0", "-net", "drop=1"}); err != nil {
		t.Fatal(err)
	}
	spec, err := r.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 0 {
		t.Fatalf("Spec rewrote the sentinel seed to %d; EffectiveSeed owns the derivation", spec.Seed)
	}
	derived := spec.EffectiveSeed()
	if derived == 0 {
		t.Fatal("derived seed is 0")
	}
	other := spec
	other.Net.MaxDrops = 2
	if other.EffectiveSeed() == derived {
		t.Error("different net model derived the same seed")
	}
}

// TestRemovedAliases: the -protocol and -reorder spellings -proto and -net
// superseded are unknown flags, not silently accepted.
func TestRemovedAliases(t *testing.T) {
	for _, args := range [][]string{{"-protocol", "x"}, {"-reorder", "1"}} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		AddRun(fs, "stache", 2, 1)
		err := fs.Parse(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want an unknown-flag error", args, err)
		}
	}
}
