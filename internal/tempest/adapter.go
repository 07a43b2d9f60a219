package tempest

import (
	"teapot/internal/obs"
	"teapot/internal/runtime"
)

// TeapotEngine adapts a set of per-node runtime engines (executing a
// compiled Teapot protocol) to the machine's Engine interface.
type TeapotEngine struct {
	Engines []*runtime.Engine
}

// NewTeapotEngine builds one runtime engine per node against machine m.
// Support may be shared across nodes (the bundled support modules keep
// their state in block variables or keyed by node).
func NewTeapotEngine(p *runtime.Protocol, nodes, blocks int, m runtime.Machine, sup runtime.Support) *TeapotEngine {
	te := &TeapotEngine{}
	for n := 0; n < nodes; n++ {
		te.Engines = append(te.Engines, runtime.NewEngine(p, n, blocks, m, sup))
	}
	return te
}

// SetObs implements obs.Attacher by attaching s to every node's engine.
func (te *TeapotEngine) SetObs(s obs.Sink) {
	for _, e := range te.Engines {
		e.SetObs(s)
	}
}

// Reset implements Engine.
func (te *TeapotEngine) Reset() {
	for _, e := range te.Engines {
		e.Reset()
	}
}

// Deliver implements Engine.
func (te *TeapotEngine) Deliver(dst int, m *runtime.Message) error {
	return te.Engines[dst].Deliver(m)
}

// Release implements Engine.
func (te *TeapotEngine) Release(dst int, m *runtime.Message) {
	te.Engines[dst].Release(m)
}

// Event implements Engine.
func (te *TeapotEngine) Event(node int, tag int, id int) error {
	return te.Engines[node].InjectEvent(tag, id)
}

// Counters implements Engine.
func (te *TeapotEngine) Counters(node int) CostCounters {
	e := te.Engines[node]
	c := e.Counters()
	return CostCounters{
		Instrs:       c.Instrs,
		Handlers:     c.Handlers,
		HeapConts:    c.HeapConts,
		StaticConts:  c.StaticConts,
		Resumes:      c.Resumes,
		ConstResumes: c.ConstResumes,
		QueueRecords: e.QueueRecords,
		Sends:        e.Sends,
		Calls:        c.Calls,
	}
}
