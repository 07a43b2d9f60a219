package litmus

// The .lit grammar, line-oriented ('#' starts a comment, blank lines are
// ignored):
//
//	litmus mp                  # test name (first directive)
//	proto stache               # bundled protocol
//	nodes 2                    # optional; default = number of node scripts
//	blocks x y                 # block names; order = block index
//	net drop=1                 # optional netmodel syntax; "none"/"" = perfect
//	init x=1 y=2               # optional initial values (default 0)
//	must-fail forbidden:name   # optional negative-path marker
//
//	node 0:                    # script header; ops follow, one per line
//	  put x 1                  # store 1 to x (values 1..2^31-1)
//	  get y -> r0              # load y into register r0
//	  cas x 0 2 -> r1          # if x reads 0, store 2; observation -> r1
//
//	forbid stale: r0=1 & r1=0  # conditions over registers and blocks
//	allow fresh: r0=1
//	expect final: x=2
//
// Registers are declared at their observing op and must be unique across
// the whole test; condition clauses name registers or blocks.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"teapot/internal/protocols"
)

// maxVal bounds store values: they must survive the 32-bit value lane of
// tempest's packed words, and 0 is reserved for "uninitialized".
const maxVal = 1<<31 - 1

// Parse parses one .lit file's contents. path is for diagnostics only.
func Parse(path string, data []byte) (*Test, error) {
	t := &Test{Path: path}
	var curNode = -1 // node script being filled, -1 = none
	// Lines are cut from one copy of the file: no scanner buffer, and no
	// string per line (a trailing '\r' goes with the surrounding space).
	rest := string(data)
	lineNo := 0
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s:%d: %s", path, lineNo, fmt.Sprintf(format, args...))
	}
	for rest != "" {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		lineNo++
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		key := fields[0]

		// Node script headers and bodies.
		if key == "node" {
			rest := strings.TrimSuffix(strings.Join(fields[1:], ""), ":")
			n, err := strconv.Atoi(rest)
			if err != nil || n < 0 {
				return nil, fail("bad node header %q (want e.g. \"node 0:\")", line)
			}
			if n >= protocols.MaxNodes {
				return nil, fail("node %d: a machine has nodes 0..%d", n, protocols.MaxNodes-1)
			}
			for len(t.Progs) <= n {
				t.Progs = append(t.Progs, nil)
			}
			if t.Progs[n] != nil {
				return nil, fail("node %d scripted twice", n)
			}
			t.Progs[n] = []Op{}
			curNode = n
			continue
		}
		switch key {
		case "get", "put", "cas":
			if curNode < 0 {
				return nil, fail("%s outside a node script", key)
			}
			op, err := parseOp(t, fields)
			if err != nil {
				return nil, fail("%v", err)
			}
			t.Progs[curNode] = append(t.Progs[curNode], op)
			continue
		}

		// Directives end any open node script.
		curNode = -1
		switch key {
		case "litmus":
			if len(fields) != 2 {
				return nil, fail("want: litmus <name>")
			}
			t.Name = fields[1]
		case "proto":
			if len(fields) != 2 {
				return nil, fail("want: proto <protocol>")
			}
			t.Proto = fields[1]
		case "nodes":
			if len(fields) != 2 {
				return nil, fail("want: nodes <count>")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 || n > protocols.MaxNodes {
				return nil, fail("bad node count %q (want 1..%d)", fields[1], protocols.MaxNodes)
			}
			t.Nodes = n
		case "blocks":
			if len(fields) < 2 {
				return nil, fail("want: blocks <name>...")
			}
			if t.Blocks != nil {
				return nil, fail("blocks declared twice (ops and inits above index the first list)")
			}
			t.Blocks = fields[1:]
		case "net":
			if len(fields) != 2 {
				return nil, fail("want: net <model>")
			}
			if fields[1] != "none" {
				t.Net = fields[1]
			}
		case "init":
			for _, f := range fields[1:] {
				name, val, err := splitAssign(f)
				if err != nil {
					return nil, fail("%v", err)
				}
				b := t.BlockIndex(name)
				if b < 0 {
					return nil, fail("init of unknown block %s", name)
				}
				if val < 1 || val > maxVal {
					return nil, fail("init %s=%d out of range 1..%d", name, val, maxVal)
				}
				for len(t.Init) < len(t.Blocks) {
					t.Init = append(t.Init, 0)
				}
				t.Init[b] = val
			}
		case "must-fail":
			if len(fields) != 2 {
				return nil, fail("want: must-fail <class>")
			}
			t.MustFail = fields[1]
		case "forbid", "allow", "expect":
			c, err := parseCond(t, key, strings.Join(fields[1:], " "))
			if err != nil {
				return nil, fail("%v", err)
			}
			t.Conds = append(t.Conds, c)
		default:
			return nil, fail("unknown directive %q", key)
		}
	}
	if t.Nodes == 0 {
		t.Nodes = len(t.Progs)
	}
	if err := t.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// parseOp parses one script operation line (already split into fields).
func parseOp(t *Test, fields []string) (Op, error) {
	bad := func() (Op, error) {
		return Op{}, fmt.Errorf("bad op %q (want \"get <blk> -> <reg>\", \"put <blk> <val>\", or \"cas <blk> <expect> <val> -> <reg>\")",
			strings.Join(fields, " "))
	}
	blockOf := func(name string) (int, error) {
		b := t.BlockIndex(name)
		if b < 0 {
			return 0, fmt.Errorf("unknown block %s (declare it on the blocks line)", name)
		}
		return b, nil
	}
	valOf := func(s string, min int64) (int64, error) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < min || v > maxVal {
			return 0, fmt.Errorf("value %q out of range %d..%d", s, min, maxVal)
		}
		return v, nil
	}
	switch fields[0] {
	case "get":
		if len(fields) != 4 || fields[2] != "->" {
			return bad()
		}
		b, err := blockOf(fields[1])
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: Get, Block: b, Reg: fields[3]}, nil
	case "put":
		if len(fields) != 3 {
			return bad()
		}
		b, err := blockOf(fields[1])
		if err != nil {
			return Op{}, err
		}
		v, err := valOf(fields[2], 1)
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: Put, Block: b, Val: v}, nil
	case "cas":
		if len(fields) != 6 || fields[4] != "->" {
			return bad()
		}
		b, err := blockOf(fields[1])
		if err != nil {
			return Op{}, err
		}
		exp, err := valOf(fields[2], 0) // expecting 0 = "still uninitialized"
		if err != nil {
			return Op{}, err
		}
		v, err := valOf(fields[3], 1)
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: CAS, Block: b, Expect: exp, Val: v, Reg: fields[5]}, nil
	}
	return bad()
}

// parseCond parses "name: a=1 & b=0" after a forbid/allow/expect keyword.
func parseCond(t *Test, sense, rest string) (Cond, error) {
	name, clauses, ok := strings.Cut(rest, ":")
	if !ok || strings.TrimSpace(name) == "" {
		return Cond{}, fmt.Errorf("want: %s <name>: <clause> & <clause>...", sense)
	}
	c := Cond{Name: strings.TrimSpace(name)}
	switch sense {
	case "forbid":
		c.Sense = Forbid
	case "allow":
		c.Sense = Allow
	case "expect":
		c.Sense = Expect
	}
	for _, part := range strings.Split(clauses, "&") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Cond{}, fmt.Errorf("empty clause in condition %s", c.Name)
		}
		ref, val, err := splitAssign(part)
		if err != nil {
			return Cond{}, err
		}
		cl := Clause{Val: val}
		if b := t.BlockIndex(ref); b >= 0 {
			cl.Block = b
		} else {
			cl.IsReg = true
			cl.Reg = ref
		}
		c.Clauses = append(c.Clauses, cl)
	}
	if len(c.Clauses) == 0 {
		return Cond{}, fmt.Errorf("condition %s has no clauses", c.Name)
	}
	return c, nil
}

// splitAssign parses "name=val".
func splitAssign(s string) (string, int64, error) {
	name, valStr, ok := strings.Cut(s, "=")
	name, valStr = strings.TrimSpace(name), strings.TrimSpace(valStr)
	if !ok || name == "" {
		return "", 0, fmt.Errorf("bad assignment %q (want name=value)", s)
	}
	v, err := strconv.ParseInt(valStr, 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad value in %q", s)
	}
	return name, v, nil
}

// LoadFile parses one .lit file.
func LoadFile(path string) (*Test, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

// LoadDir loads every .lit file directly inside dir (non-recursive, so a
// fail/ subdirectory of negative-path tests stays out of the default
// corpus), sorted by file name.
func LoadDir(dir string) ([]*Test, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.lit"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("litmus: no .lit files in %s", dir)
	}
	var tests []*Test
	names := map[string]string{}
	for _, p := range paths {
		t, err := LoadFile(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := names[t.Name]; dup {
			return nil, fmt.Errorf("litmus: test %q declared in both %s and %s", t.Name, prev, p)
		}
		names[t.Name] = p
		tests = append(tests, t)
	}
	return tests, nil
}
