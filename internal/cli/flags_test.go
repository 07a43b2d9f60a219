package cli

import (
	"flag"
	"testing"

	"teapot/internal/netmodel"
)

func TestNetFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	n := addNet(fs)
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
	r := addRun(fs, "stache", 2, 1)
	if err := fs.Parse([]string{"-proto", "stache-ft", "-net", "drop=1", "-workers", "3", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	spec, err := r.spec()
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
	if _, err := r.spec(); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestSeedZeroDerives: -seed 0 must resolve to a stable derived seed, not
// the literal zero, and the derivation must depend on the run shape.
func TestSeedZeroDerives(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	r := addRun(fs, "stache", 2, 1)
	if err := fs.Parse([]string{"-seed", "0", "-net", "drop=1"}); err != nil {
		t.Fatal(err)
	}
	spec, err := r.spec()
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
