package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadRefuses: a schedule file is held to the ranges teapot fuzz's flags
// state; the refusal names the file and the field.
func TestLoadRefuses(t *testing.T) {
	const ok = `{"proto":"stache","nodes":3,"blocks":2,"net":"","workload_seed":1,"ops_per_node":40,"decisions":[{"step":3,"kind":"tie","pick":1}]}`
	if _, err := decode("ok.json", []byte(ok)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ old, new, want string }{
		{`"proto":"stache"`, `"proto":""`, "s.json: incomplete schedule: no proto"},
		{`"nodes":3`, `"nodes":1`, "s.json: nodes 1: want 2..64"},
		{`"nodes":3`, `"nodes":65`, "s.json: nodes 65: want 2..64"},
		{`"blocks":2`, `"blocks":0`, "s.json: blocks 0: want at least 1"},
		{`"ops_per_node":40`, `"ops_per_node":-5`, "s.json: ops_per_node -5: want at least 1"},
		{`"ops_per_node":40`, `"ops_per_node":0`, "s.json: ops_per_node 0: want at least 1"},
		{`"ops_per_node":40`, `"ops_per_node":-1,"litmus":"mp"`, "s.json: ops_per_node -1: want at least 0"},
		{`"kind":"tie"`, `"kind":"bogus"`, `s.json: decision 0: unknown kind "bogus"`},
		{`"pick":1`, `"pick":0`, "s.json: decision 0: pick 0: want at least 1"},
		{`"pick":1`, `"pick":-7`, "s.json: decision 0: pick -7: want at least 1"},
		{`"pick":1`, `"pick":"x"`, "s.json: json: cannot unmarshal"},
	} {
		s, err := decode("s.json", []byte(strings.Replace(ok, tc.old, tc.new, 1)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: loaded %v, error %v, want %q", tc.new, s, err, tc.want)
		}
	}
	// A litmus schedule's workload is its test's script.
	lit := strings.Replace(ok, `"nodes":3,"blocks":2,"net":"","workload_seed":1,"ops_per_node":40`, `"nodes":1,"blocks":2,"ops_per_node":0,"litmus":"mp"`, 1)
	if _, err := decode("lit.json", []byte(lit)); err != nil {
		t.Error(err)
	}
}

// FuzzLoad: a schedule file loads or is refused by name, never panics; what
// loads, saved and loaded again, saves to the same bytes. The seeds are the
// committed reproducers and run as ordinary subtests.
func FuzzLoad(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(reproDir, "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seeds in %s: %v", reproDir, err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decode("fuzz.json", data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fuzz: fuzz.json: ") {
				t.Fatalf("refusal does not name the file: %v", err)
			}
			return
		}
		saved, err := s.encode()
		if err != nil {
			t.Fatal(err)
		}
		again, err := decode("fuzz.json", saved)
		if err != nil {
			t.Fatalf("saved form is refused: %v\n%s", err, saved)
		}
		if resaved, err := again.encode(); err != nil || !bytes.Equal(saved, resaved) {
			t.Fatalf("save, load, save is not a fixpoint (%v):\n%s\n%s", err, saved, resaved)
		}
	})
}
