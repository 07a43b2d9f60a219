package core_test

import (
	"testing"

	"teapot/internal/core"
	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/obs"
	"teapot/internal/protocols"
	"teapot/internal/tempest"
)

// stubProgram is an identity-comparable workload stand-in.
type stubProgram struct{}

func (*stubProgram) Next(node int) (tempest.Op, bool) { return tempest.Op{}, false }

// specFixture builds a RunSpec over a real compiled protocol, with
// everything SimConfig lowers set to a distinctive value.
func specFixture(t *testing.T) core.RunSpec {
	t.Helper()
	spec, err := protocols.Spec("stache-ft", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec.Net = netmodel.Model{Reorder: 2, MaxDrops: 3, MaxDups: 4, Delay: 6}
	spec.Seed = 42
	spec.Program = &stubProgram{}
	spec.Obs = obs.NewCollector(0)
	spec.MaxEvents = 777
	return spec
}

// TestMCConfigLowering: the checker's configuration is the embedded value,
// so what is assigned through the promoted fields is what Check gets — the
// coverage set and the sink included, which therefore need no patching into
// a lowered copy.
func TestMCConfigLowering(t *testing.T) {
	spec := specFixture(t)
	spec.Workers, spec.Symmetry = 7, mc.SymmetryOn
	spec.Coverage = obs.NewCoverage()
	cfg := spec.MCConfig()
	if cfg.Proto != spec.Proto || cfg.Net != spec.Net || cfg.Workers != 7 || cfg.Symmetry != mc.SymmetryOn {
		t.Errorf("promoted fields did not reach the checker configuration: %+v", cfg)
	}
	if cfg.Coverage != spec.Coverage || cfg.Obs != spec.Obs {
		t.Error("coverage set or sink left behind")
	}
}

// TestSimConfigLowering: every simulator-relevant RunSpec field must
// survive the lowering — Net budgets, seed resolution, event budget,
// observability sink, workload, and engine wiring — and the cost model is
// the default one.
func TestSimConfigLowering(t *testing.T) {
	spec := specFixture(t)
	cfg := spec.SimConfig()

	if cfg.Nodes != 3 || cfg.Blocks != 2 {
		t.Errorf("machine shape: %d nodes, %d blocks", cfg.Nodes, cfg.Blocks)
	}
	if cfg.Net != spec.Net {
		t.Errorf("net model: %+v, want %+v", cfg.Net, spec.Net)
	}
	if cfg.Seed != 42 {
		t.Errorf("seed %d, want the verbatim nonzero seed 42", cfg.Seed)
	}
	if cfg.Cost != tempest.DefaultCost {
		t.Errorf("cost model %+v, want tempest.DefaultCost", cfg.Cost)
	}
	if cfg.MaxEvents != 777 {
		t.Errorf("event budget %d, want 777", cfg.MaxEvents)
	}
	if cfg.Obs != spec.Obs {
		t.Error("observability sink dropped")
	}
	if cfg.Program != spec.Program {
		t.Error("program not threaded")
	}
	if cfg.MakeEngine == nil {
		t.Fatal("MakeEngine missing")
	}
	if cfg.Tags.ReadFault < 0 && cfg.Tags.WriteFault < 0 {
		t.Error("event tags unresolved")
	}
}

// TestEffectiveSeed pins the -seed 0 contract: nonzero seeds pass through
// verbatim; seed 0 derives a stable nonzero seed from the run shape, and
// different shapes give different seeds.
func TestEffectiveSeed(t *testing.T) {
	spec := specFixture(t)
	if got := spec.EffectiveSeed(); got != 42 {
		t.Errorf("nonzero seed rewritten: %d", got)
	}

	spec.Seed = 0
	derived := spec.EffectiveSeed()
	if derived == 0 {
		t.Fatal("derived seed is 0 (reserved for 'derive')")
	}
	if derived != spec.EffectiveSeed() {
		t.Error("derivation not stable")
	}

	other := spec
	other.Nodes = 4
	if other.EffectiveSeed() == derived {
		t.Error("different machine size derived the same seed")
	}
	other = spec
	other.Net = netmodel.Model{MaxDrops: 1}
	if other.EffectiveSeed() == derived {
		t.Error("different net model derived the same seed")
	}

	// SimConfig resolves the seed, so a seed-0 spec lowers deterministically.
	if got := spec.SimConfig().Seed; got != derived {
		t.Errorf("SimConfig seed %d, want derived %d", got, derived)
	}
}
