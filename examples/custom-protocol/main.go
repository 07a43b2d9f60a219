// Custom-protocol: the paper's §3 case study (Figure 6) — extending the
// Stache protocol with a Compare&Swap primitive that executes at the
// block's home node once the block becomes Idle.
//
//	go run ./examples/custom-protocol
//
// The point of the example: with continuations, the Home_RS handler simply
// invalidates the sharers, suspends for the acknowledgements, and then
// performs the swap; a CNS_REQ that arrives in any intermediate state is
// queued automatically. The paper reports that the state-machine version
// of the same extension "needs to test for this condition at 14 different
// places".
package main

import (
	"fmt"
	"log"

	"teapot/internal/protocols"
	"teapot/internal/protocols/stache"
	"teapot/internal/runtime"
	"teapot/internal/sema"
	"teapot/internal/vm"
)

type loopback struct {
	engines []*runtime.Engine
	queue   []func() error
	traces  bool
	proto   *runtime.Protocol
}

func (m *loopback) Send(from, dst int, msg *runtime.Message) {
	if m.traces {
		fmt.Printf("    %s: node %d -> node %d\n",
			m.proto.Sema().Messages[msg.Tag].Name, from, dst)
	}
	e := m.engines[dst]
	m.queue = append(m.queue, func() error { return e.Deliver(msg) })
}
func (m *loopback) AccessChange(node, id int, mode sema.AccessMode) {}
func (m *loopback) RecvData(node, id int, mode sema.AccessMode)     {}
func (m *loopback) WakeUp(node, id int)                             {}
func (m *loopback) HomeNode(id int) int                             { return 0 }
func (m *loopback) Print(node int, s string)                        {}
func (m *loopback) pump() error {
	for len(m.queue) > 0 {
		next := m.queue[0]
		m.queue = m.queue[1:]
		if err := next(); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	art := protocols.MustCompile("stache-cas", true)
	sup, err := stache.NewCASSupport(art.Protocol)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Stache + Compare&Swap: %d states (%d added), %d messages\n\n",
		len(art.Sema.States), 1, len(art.Sema.Messages))

	m := &loopback{traces: true, proto: art.Protocol}
	for n := 0; n < 4; n++ {
		m.engines = append(m.engines, runtime.NewEngine(art.Protocol, n, 1, m, sup))
	}
	event := func(node int, name string, payload ...vm.Value) {
		if err := m.engines[node].InjectEvent(art.Protocol.MsgIndex(name), 0, payload...); err != nil {
			log.Fatal(err)
		}
		if err := m.pump(); err != nil {
			log.Fatal(err)
		}
	}

	sup.Words[0] = 100
	fmt.Println("block 0's word starts at 100; nodes 1 and 2 obtain read copies:")
	event(1, "RD_FAULT")
	event(2, "RD_FAULT")
	fmt.Printf("  home state: %s\n\n", m.engines[0].Blocks[0].StateName(art.Protocol))

	fmt.Println("node 3 issues CAS(100 -> 200): the home invalidates both")
	fmt.Println("sharers, waits for their acknowledgements, becomes Idle, and")
	fmt.Println("only then performs the swap:")
	event(3, "CAS_EV", vm.IntVal(100), vm.IntVal(200))
	fmt.Printf("  word = %d, node 3 outcome = %v\n", sup.Words[0], sup.Results[[2]int{3, 0}])
	fmt.Printf("  home state: %s, sharer states: %s / %s\n\n",
		m.engines[0].Blocks[0].StateName(art.Protocol),
		m.engines[1].Blocks[0].StateName(art.Protocol),
		m.engines[2].Blocks[0].StateName(art.Protocol))

	fmt.Println("node 1 issues a failing CAS(100 -> 300) (the word is 200 now):")
	event(1, "CAS_EV", vm.IntVal(100), vm.IntVal(300))
	fmt.Printf("  word = %d, node 1 outcome = %v\n", sup.Words[0], sup.Results[[2]int{1, 0}])
}
