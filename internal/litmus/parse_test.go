package litmus

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const mpSrc = `
# classic message passing
litmus mp
proto stache
blocks x y

node 0:
  put x 1
  put y 1

node 1:
  get y -> r0
  get x -> r1

forbid stale: r0=1 & r1=0
allow fresh: r0=1 & r1=1
expect data: x=1
`

func TestParseMP(t *testing.T) {
	tt, err := Parse("mp.lit", []byte(mpSrc))
	if err != nil {
		t.Fatal(err)
	}
	if tt.Name != "mp" || tt.Proto != "stache" || tt.Nodes != 2 {
		t.Errorf("header = %q/%q/%d nodes", tt.Name, tt.Proto, tt.Nodes)
	}
	if len(tt.Blocks) != 2 || tt.BlockIndex("y") != 1 || tt.BlockIndex("z") != -1 {
		t.Errorf("blocks = %v", tt.Blocks)
	}
	if got := len(tt.Progs[0]); got != 2 {
		t.Errorf("node 0 has %d ops", got)
	}
	wantOps := []string{"get blk1 -> r0", "get blk0 -> r1"}
	for i, op := range tt.Progs[1] {
		if op.String() != wantOps[i] {
			t.Errorf("node 1 op %d = %q, want %q", i, op, wantOps[i])
		}
	}
	if regs := tt.Regs(); len(regs) != 2 || regs[0] != "r0" || regs[1] != "r1" {
		t.Errorf("regs = %v", regs)
	}
	if len(tt.Conds) != 3 || tt.Conds[0].Sense != Forbid || tt.Conds[1].Sense != Allow || tt.Conds[2].Sense != Expect {
		t.Errorf("conds = %+v", tt.Conds)
	}
	if s := tt.Conds[0].String(tt.Blocks); s != "forbid stale: r0=1 & r1=0" {
		t.Errorf("cond render = %q", s)
	}
}

// TestParseCRLF: a file with CRLF line endings and no final newline parses
// to the same test, and a diagnostic names the same line.
func TestParseCRLF(t *testing.T) {
	want, err := Parse("mp.lit", []byte(mpSrc))
	if err != nil {
		t.Fatal(err)
	}
	crlf := strings.TrimSuffix(strings.ReplaceAll(mpSrc, "\n", "\r\n"), "\r\n")
	got, err := Parse("mp.lit", []byte(crlf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CRLF parse = %+v, want %+v", got, want)
	}
	bad := strings.Replace(crlf, "put y 1", "put y 0", 1)
	if _, err := Parse("mp.lit", []byte(bad)); err == nil || !strings.HasPrefix(err.Error(), "mp.lit:9: ") {
		t.Errorf("err = %v, want a diagnostic on line 9", err)
	}
}

func TestParseCASAndInit(t *testing.T) {
	src := `
litmus lost-update
proto stache
blocks c
init c=1
node 0:
  cas c 1 2 -> r0
node 1:
  cas c 1 3 -> r1
forbid both: r0=1 & r1=1 & c=3
`
	tt, err := Parse("t.lit", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if tt.Init[0] != 1 {
		t.Errorf("init = %v", tt.Init)
	}
	op := tt.Progs[0][0]
	if op.Kind != CAS || op.Expect != 1 || op.Val != 2 || op.Reg != "r0" {
		t.Errorf("cas op = %+v", op)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown directive", "litmus t\nproto p\nblocks x\nbogus 1\nnode 0:\n get x -> r0\n", "unknown directive"},
		{"op outside script", "litmus t\nproto p\nblocks x\nget x -> r0\n", "outside a node script"},
		{"script after directive ends", "litmus t\nproto p\nblocks x\nnode 0:\ninit x=1\n get x -> r0\n", "outside a node script"},
		{"node scripted twice", "litmus t\nproto p\nblocks x\nnode 0:\n put x 1\nnode 0:\n put x 2\n", "scripted twice"},
		{"unknown block", "litmus t\nproto p\nblocks x\nnode 0:\n put z 1\n", "unknown block z"},
		{"store of zero", "litmus t\nproto p\nblocks x\nnode 0:\n put x 0\n", "out of range"},
		{"store too large", "litmus t\nproto p\nblocks x\nnode 0:\n put x 2147483648\n", "out of range"},
		{"init of unknown block", "litmus t\nproto p\nblocks x\ninit z=1\nnode 0:\n put x 1\n", "unknown block"},
		{"register observed twice", "litmus t\nproto p\nblocks x\nnode 0:\n get x -> r0\n get x -> r0\n", "observed twice"},
		{"block shadows register", "litmus t\nproto p\nblocks r0\nnode 0:\n get r0 -> r0\n", "shadows a register"},
		{"cond unknown register", "litmus t\nproto p\nblocks x\nnode 0:\n put x 1\nforbid f: r9=1\n", "unknown register r9"},
		{"cond declared twice", "litmus t\nproto p\nblocks x\nnode 0:\n get x -> r0\nallow a: r0=1\nforbid a: r0=0\n", "declared twice"},
		{"nodes below scripts", "litmus t\nproto p\nnodes 1\nblocks x\nnode 0:\n put x 1\nnode 1:\n get x -> r0\n", "nodes 1 < 2 scripted nodes"},
		{"missing proto", "litmus t\nblocks x\nnode 0:\n put x 1\n", "missing proto"},
		{"missing blocks", "litmus t\nproto p\nnode 0:\n", "missing blocks"},
		{"no scripts", "litmus t\nproto p\nblocks x\n", "no node scripts"},
		{"empty clause", "litmus t\nproto p\nblocks x\nnode 0:\n put x 1\nforbid f: x=1 &\n", "empty clause"},
		{"bad assignment", "litmus t\nproto p\nblocks x\nnode 0:\n put x 1\nforbid f: x\n", "bad assignment"},
		// Found by go test -fuzz FuzzParse: the header grew Progs to n+1
		// entries (1.4 GB for this one) before anything checked n.
		{"node beyond any machine", "litmus t\nproto p\nblocks x\nnode 30000000:\n put x 1\n", "t.lit:4: node 30000000: a machine has nodes 0..63"},
		{"node 64", "litmus t\nproto p\nblocks x\nnode 64:\n put x 1\n", "t.lit:4: node 64"},
		{"nodes beyond any machine", "litmus t\nproto p\nnodes 65\nblocks x\nnode 0:\n put x 1\n", `t.lit:3: bad node count "65" (want 1..64)`},
		// The round trip of FuzzParse: a second list renamed the blocks under
		// the ops and inits already parsed, and left Init shorter than Blocks.
		{"blocks declared twice", "litmus t\nproto p\nblocks x\ninit x=1\nblocks y z\nnode 0:\n put y 1\n", "t.lit:5: blocks declared twice"},
		{"bad cas arity", "litmus t\nproto p\nblocks x\nnode 0:\n cas x 1 -> r0\n", "bad op"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("t.lit", []byte(c.src))
			if err == nil {
				t.Fatalf("parse accepted %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error = %q, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("b.lit", "litmus beta\nproto stache\nblocks x\nnode 0:\n put x 1\n")
	write("a.lit", "litmus alpha\nproto stache\nblocks x\nnode 0:\n put x 1\n")
	// fail/ entries must stay out of the default corpus.
	if err := os.Mkdir(filepath.Join(dir, "fail"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fail", "c.lit"), []byte("litmus gamma\nproto stache\nblocks x\nnode 0:\n put x 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) != 2 || tests[0].Name != "alpha" || tests[1].Name != "beta" {
		t.Fatalf("loaded %d tests: %v", len(tests), tests)
	}

	write("dup.lit", "litmus alpha\nproto stache\nblocks x\nnode 0:\n put x 1\n")
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "declared in both") {
		t.Errorf("duplicate name error = %v", err)
	}

	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
}
