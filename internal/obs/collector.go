package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Collector is the in-memory Sink: a bounded ring of recent events plus
// running counters and small histograms that survive even when the ring
// wraps. The counters are the dynamic mirror of the paper's Table 1/2
// accounting — per-handler dispatch counts and continuation allocations per
// suspend site — so traces can be cross-checked against the static
// cont-alloc lint and the cost model's Allocs columns.
type Collector struct {
	// Clock supplies virtual timestamps (simulated cycles); nil stamps
	// events with their sequence number instead. Set directly or through
	// SetClock (sim.Run wires the machine's cycle counter).
	Clock func() int64

	cap     int
	ring    []Event
	start   int // index of the oldest retained event
	seq     int64
	dropped int64

	kinds    [numKinds]int64
	dispatch map[dispatchKey]int64
	heap     map[int32]int64 // heap continuation allocs per suspend site
	static   map[int32]int64 // static continuation records per suspend site
	maxDepth int64           // deepest deferred queue observed
}

type dispatchKey struct {
	State int32
	Msg   int32
}

// DefaultRingCap bounds the retained event window when NewCollector is
// given no capacity.
const DefaultRingCap = 1 << 20

// NewCollector builds a collector retaining at most capacity events
// (<= 0 uses DefaultRingCap). Counters always cover the whole run; only
// the event window is bounded.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Collector{
		cap:      capacity,
		dispatch: make(map[dispatchKey]int64),
		heap:     make(map[int32]int64),
		static:   make(map[int32]int64),
	}
}

// DefaultFlightRecorderCap is the event window NewFlightRecorder keeps when
// given no capacity: enough tail to see the exchange leading into a
// violation, small enough to attach to every fuzz schedule for free.
const DefaultFlightRecorderCap = 64

// NewFlightRecorder builds a Collector in flight-recorder mode: a small
// last-N-events ring (<= 0 uses DefaultFlightRecorderCap) intended for
// post-mortems without full tracing. Counters still cover the whole run —
// only the retained window is tight. Dump the tail with TailLines when an
// oracle violation or checker counterexample needs context.
func NewFlightRecorder(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultFlightRecorderCap
	}
	return NewCollector(capacity)
}

// SetClock implements ClockSetter.
func (c *Collector) SetClock(now func() int64) { c.Clock = now }

// Emit implements Sink.
func (c *Collector) Emit(ev Event) {
	ev.Seq = c.seq
	c.seq++
	if c.Clock != nil {
		ev.Time = c.Clock()
	} else {
		ev.Time = ev.Seq
	}
	if int(ev.Kind) < len(c.kinds) {
		c.kinds[ev.Kind]++
	}
	switch ev.Kind {
	case KindHandlerEnter:
		c.dispatch[dispatchKey{ev.State, ev.Msg}]++
	case KindContAlloc:
		if ev.Arg != 0 {
			c.heap[ev.Site]++
		} else {
			c.static[ev.Site]++
		}
	case KindEnqueue:
		if ev.Arg > c.maxDepth {
			c.maxDepth = ev.Arg
		}
	}
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, ev)
		return
	}
	c.ring[c.start] = ev
	c.start = (c.start + 1) % c.cap
	c.dropped++
}

// Total returns the number of events emitted (including dropped ones).
func (c *Collector) Total() int64 { return c.seq }

// Dropped returns how many events fell out of the ring window.
func (c *Collector) Dropped() int64 { return c.dropped }

// Count returns the running count of one event kind.
func (c *Collector) Count(k Kind) int64 {
	if int(k) < len(c.kinds) {
		return c.kinds[k]
	}
	return 0
}

// MaxQueueDepth returns the deepest deferred queue observed.
func (c *Collector) MaxQueueDepth() int64 { return c.maxDepth }

// KindCounts returns the nonzero per-kind counters keyed by kind name
// (the run manifest's "by_kind" block).
func (c *Collector) KindCounts() map[string]int64 {
	out := make(map[string]int64)
	for k := Kind(0); k < numKinds; k++ {
		if c.kinds[k] != 0 {
			out[k.String()] = c.kinds[k]
		}
	}
	return out
}

// Events returns the retained window in emission order.
func (c *Collector) Events() []Event {
	out := make([]Event, 0, len(c.ring))
	out = append(out, c.ring[c.start:]...)
	out = append(out, c.ring[:c.start]...)
	return out
}

// TailLines renders the last n retained events (all of them when n <= 0 or
// exceeds the window), one line per event, oldest first.
func (c *Collector) TailLines(n int, names Names) []string {
	evs := c.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = FormatEvent(ev, names)
	}
	return out
}

// FormatEvent renders one event as a single plain-text line (the flight
// recorder's dump format): sequence, virtual time, kind, location, then
// whichever kind-specific fields are set.
func FormatEvent(ev Event, names Names) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d @%d %s node%d blk%d", ev.Seq, ev.Time, ev.Kind, ev.Node, ev.Block)
	if ev.State >= 0 {
		fmt.Fprintf(&b, " state=%s", names.State(ev.State))
	}
	if ev.Msg >= 0 {
		fmt.Fprintf(&b, " msg=%s", names.Message(ev.Msg))
	}
	if ev.Peer >= 0 {
		fmt.Fprintf(&b, " peer=node%d", ev.Peer)
	}
	if ev.Site >= 0 {
		fmt.Fprintf(&b, " site=%d", ev.Site)
	}
	if ev.Arg != 0 {
		fmt.Fprintf(&b, " arg=%d", ev.Arg)
	}
	if ev.Flow != 0 {
		fmt.Fprintf(&b, " flow=%x", ev.Flow)
	}
	return b.String()
}

// HeapContSites returns the suspend sites that heap-allocated at least one
// continuation record, ascending.
func (c *Collector) HeapContSites() []int { return sortedSites(c.heap) }

// StaticContSites returns the suspend sites that produced at least one
// statically allocated record, ascending.
func (c *Collector) StaticContSites() []int { return sortedSites(c.static) }

// SiteAllocs returns (heap, static) continuation-record counts for one
// suspend site.
func (c *Collector) SiteAllocs(site int) (heap, static int64) {
	return c.heap[int32(site)], c.static[int32(site)]
}

func sortedSites(m map[int32]int64) []int {
	out := make([]int, 0, len(m))
	for s := range m {
		out = append(out, int(s))
	}
	sort.Ints(out)
	return out
}

// DispatchCount returns how many times the (state, msg) handler ran.
func (c *Collector) DispatchCount(state, msg int) int64 {
	return c.dispatch[dispatchKey{int32(state), int32(msg)}]
}

// summaryTopHandlers bounds the per-handler table in Summary.
const summaryTopHandlers = 10

// Summary renders the counters as a plain-text table (the format is pinned
// by a golden test; teapot sim -stats prints it verbatim).
func (c *Collector) Summary(names Names) string {
	var b strings.Builder
	fmt.Fprintf(&b, "obs summary: %d events (%d retained, %d dropped)\n",
		c.seq, len(c.ring), c.dropped)
	fmt.Fprintf(&b, "  events by kind:\n")
	for k := Kind(0); k < numKinds; k++ {
		if c.kinds[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "    %-13s %d\n", k.String(), c.kinds[k])
	}

	type hrow struct {
		name string
		n    int64
	}
	rows := make([]hrow, 0, len(c.dispatch))
	for k, n := range c.dispatch {
		rows = append(rows, hrow{names.State(k.State) + "." + names.Message(k.Msg), n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].name < rows[j].name
	})
	if len(rows) > 0 {
		fmt.Fprintf(&b, "  top handlers by dispatch count:\n")
		for i, r := range rows {
			if i == summaryTopHandlers {
				fmt.Fprintf(&b, "    ... %d more\n", len(rows)-summaryTopHandlers)
				break
			}
			fmt.Fprintf(&b, "    %-32s %d\n", r.name, r.n)
		}
	}

	heapTotal, staticTotal := int64(0), int64(0)
	for _, n := range c.heap {
		heapTotal += n
	}
	for _, n := range c.static {
		staticTotal += n
	}
	fmt.Fprintf(&b, "  continuation records: %d heap (%d sites), %d static (%d sites)\n",
		heapTotal, len(c.heap), staticTotal, len(c.static))
	fmt.Fprintf(&b, "  max deferred-queue depth: %d\n", c.maxDepth)
	return b.String()
}
