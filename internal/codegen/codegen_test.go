package codegen_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"teapot/internal/codegen"
	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
)

func TestGenerateStache(t *testing.T) {
	a := protocols.MustCompile("stache", true)
	src := codegen.Generate(a.IR, "stacheproto")
	for _, want := range []string{
		"package stacheproto",
		"type Host interface",
		"MsgGET_RO_REQ",
		"StCache_Inv",
		"var Handlers = map[[2]int]func",
		"h_Cache_Inv_RD_FAULT",
		"Cont{F:",
		"h.SetState(",
		"func MsgName(i int) string",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	// Determinism.
	if src != codegen.Generate(a.IR, "stacheproto") {
		t.Error("generation is not deterministic")
	}
	lines := strings.Count(src, "\n")
	teapotLines := strings.Count(stache.Source, "\n")
	t.Logf("Teapot %d lines -> generated Go %d lines (paper: 600 -> ~1000 C)", teapotLines, lines)
	if lines < teapotLines {
		t.Errorf("generated code (%d lines) should exceed the Teapot source (%d lines)", lines, teapotLines)
	}
}

// TestGeneratedCodeCompiles builds the generated Go for every bundled
// protocol with the real toolchain.
func TestGeneratedCodeCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	cases := map[string]string{
		"stache":   codegen.Generate(protocols.MustCompile("stache", true).IR, "proto"),
		"lcm":      codegen.Generate(protocols.MustCompile("lcm", true).IR, "proto"),
		"bufwrite": codegen.Generate(protocols.MustCompile("bufwrite", true).IR, "proto"),
		"cas":      codegen.Generate(protocols.MustCompile("stache-cas", true).IR, "proto"),
	}
	for name, src := range cases {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module gen\n\ngo 1.22\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "proto.go"), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("go", "build", "./...")
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GO111MODULE=on")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("generated code does not compile: %v\n%s\n--- source head ---\n%s",
					err, out, head(src, 60))
			}
		})
	}
}

func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
