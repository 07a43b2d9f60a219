package core_test

import (
	"testing"

	"teapot/internal/codegen"
	"teapot/internal/core"
	"teapot/internal/murphi"
	"teapot/internal/protocols"
)

// BenchmarkCompile is one round of the compile_all benchmark workload: every
// bundled source compiled optimized and unoptimized, then the Go and Murphi
// back ends on the optimized artifact.
func BenchmarkCompile(b *testing.B) {
	entries := protocols.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			art := core.MustCompile(e.Config)
			unopt := e.Config
			unopt.Optimize = false
			core.MustCompile(unopt)
			codegen.Generate(art.IR, "proto")
			murphi.Generate(art.IR, murphi.Options{})
		}
	}
}

// TestCompileAllocs: compiling stache stays within 5 % of the 4,494
// allocations it takes with a streamed lexer, allocation-free keyword
// lookup and positions, block-allocated identifiers and one liveness arena
// per function (8,406 before them). A change that puts an allocation back
// on a per-token, per-name or per-instruction path moves it by hundreds.
func TestCompileAllocs(t *testing.T) {
	const want = 4494
	e, ok := protocols.Lookup("stache")
	if !ok {
		t.Fatal("stache is not bundled")
	}
	got := testing.AllocsPerRun(10, func() { core.MustCompile(e.Config) })
	if got > want*1.05 || got < want*0.95 {
		t.Errorf("core.Compile(stache) allocates %v times, want %d ± 5 %%", got, want)
	}
}
