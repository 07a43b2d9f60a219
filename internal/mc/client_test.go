package mc_test

import (
	"strings"
	"testing"

	"teapot/internal/mc"
	"teapot/internal/protocols"
	"teapot/internal/tempest"
)

// checkScript attaches programs to base Stache at 2 nodes / 1 block and
// runs the checker: the path a script from outside takes.
func checkScript(t testing.TB, programs [][]tempest.Op) (*mc.Result, error) {
	t.Helper()
	spec, err := protocols.Spec("stache", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	client, err := mc.NewClient(spec.Proto, programs, nil)
	if err != nil {
		return nil, err
	}
	spec.Events = nil
	spec.Client = client
	spec.MaxStates = 2000
	return mc.Check(spec.MCConfig())
}

// TestClientScriptRefusals: a script the plane cannot run is an error that
// names the node and the operation — never an index panic inside a worker,
// which is what a block outside the machine used to be.
func TestClientScriptRefusals(t *testing.T) {
	read := tempest.Op{Kind: tempest.OpRead}
	for _, tc := range []struct {
		name     string
		programs [][]tempest.Op
		want     string // "" = accepted
	}{
		{"accepted", [][]tempest.Op{{read}, {{Kind: tempest.OpWrite, Val: 1<<32 - 1}}}, ""},
		{"kind compute", [][]tempest.Op{{read}, {read, {Kind: tempest.OpCompute, Cycles: 5}}}, "node 1 op 1: kind 0 is not a read, write or CAS"},
		{"kind barrier", [][]tempest.Op{{{Kind: tempest.OpBarrier}}}, "node 0 op 0: kind"},
		{"kind out of enum", [][]tempest.Op{{{Kind: tempest.OpKind(99)}}}, "node 0 op 0: kind 99"},
		{"block one past", [][]tempest.Op{{read}, {{Kind: tempest.OpRead, Addr: 1}}}, "node 1 op 0 (get): block 1 outside [0,1)"},
		{"block far past", [][]tempest.Op{{{Kind: tempest.OpCAS, Addr: 5, Val: 1}}}, "node 0 op 0 (cas): block 5 outside [0,1)"},
		{"block negative", [][]tempest.Op{{{Kind: tempest.OpWrite, Addr: -1, Val: 1}}}, "node 0 op 0 (put): block -1 outside [0,1)"},
		{"value too wide", [][]tempest.Op{{{Kind: tempest.OpWrite, Val: 1 << 32}}}, "node 0 op 0 (put): store value 4294967296 outside the 32-bit value lane"},
		{"value negative", [][]tempest.Op{{read, {Kind: tempest.OpCAS, Val: -1}}}, "node 0 op 1 (cas): store value -1 outside"},
		{"too many programs", [][]tempest.Op{{read}, {read}, {read}}, "programs for 3 nodes, machine has 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := checkScript(t, tc.programs)
			switch {
			case tc.want == "" && (err != nil || res.Violation != nil):
				t.Fatalf("err %v, result %+v", err, res)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// FuzzClientScript: whatever two-op script arrives, NewClient and Check
// answer with a result or an error, never a panic. The seeds are one op of
// each refusal beside an accepted one.
func FuzzClientScript(f *testing.F) {
	f.Add(uint8(0), int8(tempest.OpRead), 0, int64(0))
	f.Add(uint8(1), int8(tempest.OpCAS), 0, int64(7))
	f.Add(uint8(1), int8(tempest.OpRead), 1, int64(0))
	f.Add(uint8(0), int8(tempest.OpWrite), 5, int64(1))
	f.Add(uint8(0), int8(tempest.OpWrite), -1, int64(1))
	f.Add(uint8(1), int8(tempest.OpWrite), 0, int64(1)<<32)
	f.Add(uint8(0), int8(tempest.OpSync), 0, int64(0))
	f.Add(uint8(4), int8(tempest.OpRead), 0, int64(0))
	f.Fuzz(func(t *testing.T, node uint8, kind int8, addr int, val int64) {
		programs := make([][]tempest.Op, int(node%5)+1)
		programs[len(programs)-1] = []tempest.Op{
			{Kind: tempest.OpWrite, Val: 3},
			{Kind: tempest.OpKind(kind), Addr: addr, Val: val, Expect: 3},
		}
		if res, err := checkScript(t, programs); err == nil && res == nil {
			t.Fatal("neither result nor error")
		}
	})
}
