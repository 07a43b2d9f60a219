package sim_test

import (
	"strconv"
	"strings"
	"testing"

	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/sim"
	"teapot/internal/tempest"
)

// TestHandwrittenPinned pins what the hand-written baselines cost on the
// seven Table 1/2 rows at the tables' shape (32 nodes, 4 iterations): the C
// Machine column, and the counts behind it. benchmarks/expected.json pins
// the compiled engines only, and the equivalence tests compare final wire
// behaviour, so nothing else notices a hand-written row that got cheaper or
// dearer.
func TestHandwrittenPinned(t *testing.T) {
	const nodes, iters = 32, 4
	type want struct {
		cycles, handlers, instrs, messages, faultTime int64
	}
	for _, tc := range []struct {
		proto     string
		workloads []*sim.Workload
		want      map[string]want
	}{
		{"stache", sim.Table1Workloads(nodes, iters), map[string]want{
			"gauss":   {440055, 11811, 82804, 7874, 944880},
			"appbt":   {23168, 4352, 35584, 3072, 307200},
			"shallow": {8664, 1536, 13056, 1024, 122880},
			"mp3d":    {177579, 32694, 272637, 24156, 2991643},
		}},
		{"lcm", sim.Table2Workloads(nodes, iters), map[string]want{
			"adaptive": {11395, 2574, 19283, 1254, 100320},
			"stencil":  {10752, 3040, 22016, 1008, 119040},
			"unstruct": {14968, 2928, 22233, 1440, 115200},
		}},
	} {
		entry, _ := protocols.Lookup(tc.proto)
		spec, err := entry.Spec(nodes, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(tc.workloads) != len(tc.want) {
			t.Fatalf("%s: %d workloads, %d pinned", tc.proto, len(tc.workloads), len(tc.want))
		}
		for _, w := range tc.workloads {
			spec.Blocks, spec.Program = w.Blocks, w.Trace
			cfg := spec.SimConfig()
			cfg.MakeEngine = func(m runtime.Machine) tempest.Engine {
				return entry.HandWritten(spec.Proto, nodes, w.Blocks, m)
			}
			st, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			got := want{st.Cycles, st.Protocol.Handlers, st.Protocol.Instrs, st.Messages, st.FaultTime}
			if got != tc.want[w.Name] {
				t.Errorf("%s: cycles, handlers, statements, messages, fault time = %v, want %v", w.Name, got, tc.want[w.Name])
			}
		}
	}
}

// sendCounter is the machine the refusal cases run against: home rule as in
// the simulator, every effect dropped, sends counted.
type sendCounter struct{ nodes, sends int }

func (m *sendCounter) Send(int, int, *runtime.Message)        { m.sends++ }
func (m *sendCounter) AccessChange(int, int, sema.AccessMode) {}
func (m *sendCounter) RecvData(int, int, sema.AccessMode)     {}
func (m *sendCounter) WakeUp(int, int)                        {}
func (m *sendCounter) HomeNode(id int) int                    { return runtime.HomeOf(id, m.nodes) }
func (m *sendCounter) Print(int, string)                      {}

// TestStacheHandwrittenRefusesLCMTags: the tags only LCM declares, delivered
// to the Stache baseline at the numbers LCM gives them, are refused as any
// tag Stache does not know is — an error, no send, no transition, the same
// statements charged — at a cache block and at a home block.
func TestStacheHandwrittenRefusesLCMTags(t *testing.T) {
	sp := protocols.MustCompile("stache", true).Protocol
	lp := protocols.MustCompile("lcm", true).Protocol
	const unknown = 1000
	// refuse delivers tag to a fresh engine's block 1 on node (home is node
	// 1) and reports the error with the tag's number masked, and the state.
	refuse := func(node, tag int) (string, string, tempest.CostCounters) {
		t.Helper()
		m := &sendCounter{nodes: 2}
		h := stache.NewHW(sp, 2, 2, m)
		before := h.StateName(node, 1)
		err := h.Deliver(node, &runtime.Message{Tag: tag, ID: 1, Src: 1 - node})
		if err == nil || m.sends != 0 || h.StateName(node, 1) != before {
			t.Fatalf("tag %d to %s: err=%v sends=%d state=%s", tag, before, err, m.sends, h.StateName(node, 1))
		}
		return strings.ReplaceAll(err.Error(), strconv.Itoa(tag), "N"), before, h.Counters(node)
	}
	lcmOnly := 0
	for _, msg := range lp.IR.Sema.Messages {
		if sp.MsgIndex(msg.Name) >= 0 {
			continue
		}
		lcmOnly++
		for node := 0; node < 2; node++ {
			got, state, cost := refuse(node, msg.Index)
			want, _, wantCost := refuse(node, unknown)
			if got != want || cost != wantCost {
				t.Errorf("%s to %s: %q %+v, an unknown tag: %q %+v", msg.Name, state, got, cost, want, wantCost)
			}
		}
	}
	if lcmOnly != 10 {
		t.Errorf("LCM declares %d messages Stache does not, want 10", lcmOnly)
	}
}

// TestHandwrittenErrorNamesMessage: a protocol error from the hand-written
// engine names the message, as the compiled protocol's does (`teapot sim
// -engine hw -net dup=1` is where a user meets it: a duplicated fill).
func TestHandwrittenErrorNamesMessage(t *testing.T) {
	p := protocols.MustCompile("stache", true).Protocol
	h := stache.NewHW(p, 2, 1, &sendCounter{nodes: 2})
	if err := h.Event(1, p.MsgIndex("RD_FAULT"), 0); err != nil {
		t.Fatal(err)
	}
	fill := &runtime.Message{Tag: p.MsgIndex("GET_RO_RESP"), ID: 0, Src: 0, Data: true}
	if err := h.Deliver(1, fill); err != nil {
		t.Fatal(err)
	}
	err := h.Deliver(1, fill)
	const want = "stache-hw: node 1: invalid msg GET_RO_RESP to Cache_RO (block 0)"
	if err == nil || err.Error() != want {
		t.Errorf("duplicated fill: %v, want %s", err, want)
	}
}
