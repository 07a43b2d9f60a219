package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event export: the event stream becomes a JSON document
// loadable in about:tracing or https://ui.perfetto.dev. One track (tid) per
// node, B/E slices for handler activations, instants for Suspend / Resume /
// ContAlloc / Enqueue / Dequeue / NACK, and flow arrows (s/f pairs keyed by
// the per-message flow id) from each Send to the handler activation its
// delivery triggered. Virtual cycles are written as microseconds — the
// absolute unit is a documented fiction, but relative widths are exactly
// the simulator's cost model.

type traceEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders events (in emission order, as returned by
// Collector.Events) as Chrome trace JSON. Unbalanced HandlerExit events
// (their HandlerEnter fell out of the ring) are dropped; unclosed
// HandlerEnter slices are closed at the final timestamp.
func WriteChromeTrace(w io.Writer, events []Event, names Names) error {
	enc := &traceEncoder{w: w}
	enc.head()

	enc.meta("process_name", 0, map[string]any{"name": "teapot"})
	seen := map[int32]bool{}
	for _, ev := range events {
		if !seen[ev.Node] {
			seen[ev.Node] = true
			enc.meta("thread_name", ev.Node, map[string]any{"name": fmt.Sprintf("node %d", ev.Node)})
		}
	}

	depth := map[int32]int{}           // open handler slices per node
	pendingFlow := map[int32][]Event{} // Deliver flow ends awaiting their slice
	started := map[int64]bool{}        // flow ids whose start made it into the window
	var lastTS int64
	for _, ev := range events {
		if ev.Time > lastTS {
			lastTS = ev.Time
		}
		switch ev.Kind {
		case KindHandlerEnter:
			enc.emit(traceEvent{
				Name: names.State(ev.State) + "." + names.Message(ev.Msg),
				Cat:  "handler", Ph: "B", Ts: ev.Time, Tid: ev.Node,
				Args: map[string]any{"block": ev.Block, "src": ev.Peer, "state": names.State(ev.State)},
			})
			depth[ev.Node]++
			// Flow arrows terminate on the slice the delivery started.
			for _, fe := range pendingFlow[ev.Node] {
				if !started[fe.Flow] {
					continue // the Send fell out of the ring window
				}
				enc.emit(traceEvent{
					Name: names.Message(fe.Msg), Cat: "msg", Ph: "f", BP: "e",
					Ts: ev.Time, Tid: ev.Node, ID: fe.Flow,
				})
			}
			pendingFlow[ev.Node] = pendingFlow[ev.Node][:0]
		case KindHandlerExit:
			if depth[ev.Node] == 0 {
				continue // its Enter fell out of the ring window
			}
			depth[ev.Node]--
			enc.emit(traceEvent{Ph: "E", Ts: ev.Time, Tid: ev.Node})
		case KindSend:
			if ev.Flow != 0 {
				started[ev.Flow] = true
				enc.emit(traceEvent{
					Name: names.Message(ev.Msg), Cat: "msg", Ph: "s",
					Ts: ev.Time, Tid: ev.Node, ID: ev.Flow,
					Args: map[string]any{"block": ev.Block, "dst": ev.Peer},
				})
			}
		case KindDeliver:
			if ev.Flow != 0 {
				pendingFlow[ev.Node] = append(pendingFlow[ev.Node], ev)
			}
		case KindSuspend:
			enc.instant(ev, "Suspend", "cont", map[string]any{
				"block": ev.Block, "wait_state": names.State(ev.State)})
		case KindResume:
			kind := "indirect"
			if ev.Arg != 0 {
				kind = "direct"
			}
			enc.instant(ev, "Resume", "cont", map[string]any{
				"block": ev.Block, "site": ev.Site, "kind": kind})
		case KindContAlloc:
			alloc := "static"
			if ev.Arg != 0 {
				alloc = "heap"
			}
			enc.instant(ev, "ContAlloc", "cont", map[string]any{
				"block": ev.Block, "site": ev.Site, "alloc": alloc})
		case KindEnqueue:
			enc.instant(ev, "Enqueue "+names.Message(ev.Msg), "queue", map[string]any{
				"block": ev.Block, "depth": ev.Arg})
		case KindDequeue:
			enc.instant(ev, "Dequeue "+names.Message(ev.Msg), "queue", map[string]any{
				"block": ev.Block, "depth": ev.Arg})
		case KindNACK:
			enc.instant(ev, "NACK "+names.Message(ev.Msg), "queue", map[string]any{
				"block": ev.Block, "dst": ev.Peer})
		case KindDrop:
			// The Send's flow arrow (if any) is left dangling on purpose:
			// a started flow with no Deliver end is how a lost message
			// reads in the trace viewer.
			enc.instant(ev, "Drop "+names.Message(ev.Msg), "fault", map[string]any{
				"block": ev.Block, "dst": ev.Peer, "flow": ev.Flow})
		case KindDup:
			enc.instant(ev, "Dup "+names.Message(ev.Msg), "fault", map[string]any{
				"block": ev.Block, "dst": ev.Peer, "flow": ev.Flow})
		case KindAccess:
			enc.instant(ev, "Access", "mem", map[string]any{
				"block": ev.Block, "mode": ev.Arg})
		case KindData:
			enc.instant(ev, "Data "+names.Message(ev.Msg), "mem", map[string]any{
				"block": ev.Block, "src": ev.Peer, "version": ev.Arg})
		case KindRead:
			enc.instant(ev, "Read", "mem", map[string]any{
				"block": ev.Block, "version": ev.Arg})
		case KindWrite:
			enc.instant(ev, "Write", "mem", map[string]any{
				"block": ev.Block, "version": ev.Arg})
		}
		if enc.err != nil {
			return enc.err
		}
	}
	for tid, d := range depth {
		for ; d > 0; d-- {
			enc.emit(traceEvent{Ph: "E", Ts: lastTS, Tid: tid})
		}
	}
	enc.tail()
	return enc.err
}

type traceEncoder struct {
	w     io.Writer
	err   error
	first bool
}

func (e *traceEncoder) head() {
	e.first = true
	e.write([]byte(`{"traceEvents":[`))
}

func (e *traceEncoder) tail() { e.write([]byte("\n]}\n")) }

func (e *traceEncoder) meta(name string, tid int32, args map[string]any) {
	e.emit(traceEvent{Name: name, Ph: "M", Tid: tid, Args: args})
}

func (e *traceEncoder) instant(ev Event, name, cat string, args map[string]any) {
	e.emit(traceEvent{Name: name, Cat: cat, Ph: "i", S: "t", Ts: ev.Time, Tid: ev.Node, Args: args})
}

func (e *traceEncoder) emit(ev traceEvent) {
	if e.err != nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		e.err = err
		return
	}
	if e.first {
		e.first = false
		e.write([]byte("\n"))
	} else {
		e.write([]byte(",\n"))
	}
	e.write(data)
}

func (e *traceEncoder) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// ValidateChromeTrace is the tiny schema check the tests run over emitted
// traces (this package's, runtime's, and the `teapot sim -trace` one in
// the integration suite): the document must be a
// {"traceEvents": [...]} object whose events carry a known phase, named
// begin/instant/flow events, per-track balanced B/E slices, and an "s"
// flow start for every "f" flow end.
func ValidateChromeTrace(r io.Reader) error {
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace: no traceEvents")
	}
	depth := map[int32]int{}
	flows := map[int64]bool{}
	slices := 0
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "" {
				return fmt.Errorf("trace: event %d: metadata without name", i)
			}
		case "B":
			if ev.Name == "" {
				return fmt.Errorf("trace: event %d: B slice without name", i)
			}
			depth[ev.Tid]++
			slices++
		case "E":
			depth[ev.Tid]--
			if depth[ev.Tid] < 0 {
				return fmt.Errorf("trace: event %d: E without open B on tid %d", i, ev.Tid)
			}
		case "i":
			if ev.Name == "" {
				return fmt.Errorf("trace: event %d: instant without name", i)
			}
		case "s":
			flows[ev.ID] = true
		case "f":
			if !flows[ev.ID] {
				return fmt.Errorf("trace: event %d: flow end %d without start", i, ev.ID)
			}
		default:
			return fmt.Errorf("trace: event %d: unknown phase %q", i, ev.Ph)
		}
	}
	for tid, d := range depth {
		if d != 0 {
			return fmt.Errorf("trace: %d unclosed slice(s) on tid %d", d, tid)
		}
	}
	if slices == 0 {
		return fmt.Errorf("trace: no handler slices")
	}
	return nil
}
