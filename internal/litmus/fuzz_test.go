package litmus

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// printTest renders a parsed test back into .lit syntax.
func printTest(t *Test) string {
	var b strings.Builder
	fmt.Fprintf(&b, "litmus %s\nproto %s\nnodes %d\nblocks %s\n", t.Name, t.Proto, t.Nodes, strings.Join(t.Blocks, " "))
	if t.Net != "" {
		fmt.Fprintf(&b, "net %s\n", t.Net)
	}
	for i, v := range t.Init {
		if v != 0 {
			fmt.Fprintf(&b, "init %s=%d\n", t.Blocks[i], v)
		}
	}
	if t.MustFail != "" {
		fmt.Fprintf(&b, "must-fail %s\n", t.MustFail)
	}
	for n, prog := range t.Progs {
		if prog == nil {
			continue
		}
		fmt.Fprintf(&b, "node %d:\n", n)
		for _, op := range prog {
			fmt.Fprintf(&b, "  %s\n", strings.Replace(op.String(), fmt.Sprintf("blk%d", op.Block), t.Blocks[op.Block], 1))
		}
	}
	for _, c := range t.Conds {
		fmt.Fprintln(&b, c.String(t.Blocks))
	}
	return b.String()
}

// FuzzParse: Parse returns a test or a diagnostic, never panics and never
// allocates by what a number in the file says; a test that parses, printed
// and parsed again, is the same test. The seeds are the committed corpus
// and run as ordinary subtests.
func FuzzParse(f *testing.F) {
	for _, glob := range []string{"*.lit", "fail/*.lit"} {
		paths, err := filepath.Glob(filepath.Join("../../testdata/litmus", glob))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seeds under %s: %v", glob, err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := Parse("fuzz.lit", data)
		if err != nil {
			return
		}
		printed := printTest(first)
		second, err := Parse("fuzz.lit", []byte(printed))
		if err != nil {
			t.Fatalf("printed form does not parse: %v\n%s", err, printed)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("printed form parses to a different test:\n%s\nfirst  %+v\nsecond %+v", printed, first, second)
		}
	})
}
