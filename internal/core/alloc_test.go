package core_test

import (
	"runtime"
	"testing"

	"teapot/internal/analysis"
	"teapot/internal/codegen"
	"teapot/internal/core"
	"teapot/internal/murphi"
	"teapot/internal/protocols"
)

// BenchmarkCompile is one round of the compile_all benchmark workload: every
// bundled source compiled optimized and unoptimized, then the Go and Murphi
// back ends and the static analyses on the optimized artifact.
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
			analysis.Analyze(art.Protocol)
		}
	}
}

// TestCompileAllocs: compiling stache stays within 5 % of the 2,494
// allocations and 281,226 bytes it takes when every phase allocates only
// what it returns and reuses its scratch. A change that puts an allocation
// back on a per-token, per-name or per-instruction path moves the count by
// hundreds; one that puts back a doubling buffer moves the bytes by tens of
// thousands.
func TestCompileAllocs(t *testing.T) {
	const wantAllocs, wantBytes = 2494, 281226
	e, ok := protocols.Lookup("stache")
	if !ok {
		t.Fatal("stache is not bundled")
	}
	compile := func() { core.MustCompile(e.Config) }
	if got := testing.AllocsPerRun(10, compile); got > wantAllocs*1.05 || got < wantAllocs*0.95 {
		t.Errorf("core.Compile(stache) allocates %v times, want %d ± 5 %%", got, wantAllocs)
	}
	if raceEnabled {
		return // the race detector's sync.Pool drops what it holds, and fmt allocates
	}
	if got := bytesPerRun(10, compile); got > wantBytes*1.05 || got < wantBytes*0.95 {
		t.Errorf("core.Compile(stache) allocates %.0f bytes, want %d ± 5 %%", got, wantBytes)
	}
}

// TestCodeExactlySized: lowering copies each handler out of its scratch at
// its final length, so no handler's code carries spare capacity, optimized
// or not, in any bundled protocol.
func TestCodeExactlySized(t *testing.T) {
	for _, e := range protocols.All() {
		for _, optimize := range []bool{true, false} {
			cfg := e.Config
			cfg.Optimize = optimize
			for _, f := range core.MustCompile(cfg).IR.Funcs {
				if len(f.Code) != cap(f.Code) {
					t.Errorf("%s (optimize=%v) %s: %d instructions in a slice of capacity %d",
						e.Name, optimize, f.Name, len(f.Code), cap(f.Code))
				}
			}
		}
	}
}

// TestBackEndsAllocateTheirText: codegen and murphi measure their text
// before writing it, so each allocates the text at its final size and a few
// small tables besides, under 1.5 times the text's length for every bundled
// protocol. A builder that doubles up to the text allocates about twice it.
func TestBackEndsAllocateTheirText(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops what it holds, and fmt allocates")
	}
	for _, e := range protocols.All() {
		prog := protocols.MustCompile(e.Name, true).IR
		for _, gen := range []struct {
			name string
			run  func() string
		}{
			{"codegen", func() string { return codegen.Generate(prog, "proto") }},
			{"murphi", func() string { return murphi.Generate(prog, murphi.Options{}) }},
		} {
			text := len(gen.run())
			if got := bytesPerRun(5, func() { gen.run() }); got >= 1.5*float64(text) {
				t.Errorf("%s.Generate(%s) allocates %.0f bytes for a %d-byte text, want under 1.5 times it",
					gen.name, e.Name, got, text)
			}
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes one
// call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
