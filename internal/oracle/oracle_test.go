package oracle

import (
	"reflect"
	"strings"
	"testing"

	"teapot/internal/obs"
	"teapot/internal/sema"
)

// feed pushes a synthetic event stream through a fresh checker.
func feed(t *testing.T, inv Invariants, evs []obs.Event) *Violation {
	t.Helper()
	c := New(Config{Nodes: 3, Blocks: 2, Inv: inv})
	for _, ev := range evs {
		c.Emit(ev)
	}
	return c.Finish()
}

func acc(node, block int, mode sema.AccessMode) obs.Event {
	return obs.Event{Kind: obs.KindAccess, Node: int32(node), Block: int32(block), Arg: int64(mode)}
}

func data(node, block int, val int64) obs.Event {
	return obs.Event{Kind: obs.KindData, Node: int32(node), Block: int32(block), Arg: val}
}

func deliver(node, block int) obs.Event {
	return obs.Event{Kind: obs.KindDeliver, Node: int32(node), Block: int32(block)}
}

func read(node, block int, val int64) obs.Event {
	return obs.Event{Kind: obs.KindRead, Node: int32(node), Block: int32(block), Arg: val}
}

func write(node, block int, val int64) obs.Event {
	return obs.Event{Kind: obs.KindWrite, Node: int32(node), Block: int32(block), Arg: val}
}

func TestCleanRunPasses(t *testing.T) {
	// Home of block 1 is node 1. Node 0 fetches RO, then upgrades with the
	// home's copy invalidated first — a textbook invalidation sequence.
	v := feed(t, AllInvariants(), []obs.Event{
		acc(1, 1, sema.AccReadOnly),                // home downgrades itself
		data(0, 1, 0), acc(0, 1, sema.AccReadOnly), // fill
		deliver(0, 1),
		read(0, 1, 0),
		acc(1, 1, sema.AccInvalid), // home invalidated for the upgrade
		acc(0, 1, sema.AccReadWrite),
		deliver(0, 1),
		write(0, 1, 1),
		read(0, 1, 1),
	})
	if v != nil {
		t.Fatalf("clean run flagged: %v", v)
	}
}

func TestSWMRTwoWriters(t *testing.T) {
	v := feed(t, AllInvariants(), []obs.Event{
		acc(0, 0, sema.AccReadWrite), // home of block 0 is node 0 and already RW
		acc(1, 0, sema.AccReadWrite),
		deliver(1, 0), // boundary triggers the check
	})
	if v == nil || v.Invariant != "swmr" {
		t.Fatalf("want swmr violation, got %v", v)
	}
	if v.Block != 0 {
		t.Fatalf("violation block = %d, want 0", v.Block)
	}
}

func TestSWMRWriterPlusReader(t *testing.T) {
	v := feed(t, AllInvariants(), []obs.Event{
		acc(2, 0, sema.AccReadOnly), // node 0 (home) still ReadWrite
		deliver(2, 0),
	})
	if v == nil || v.Invariant != "swmr" {
		t.Fatalf("want swmr violation, got %v", v)
	}
}

func TestMidHandlerTransientTolerated(t *testing.T) {
	// Within one handler the access map passes through a bad state but is
	// consistent again by the next boundary: not a violation.
	v := feed(t, AllInvariants(), []obs.Event{
		acc(1, 0, sema.AccReadWrite), // transient: two writers...
		acc(0, 0, sema.AccInvalid),   // ...but home drops its copy before the boundary
		data(1, 0, 0),
		deliver(1, 0),
		write(1, 0, 1),
	})
	if v != nil {
		t.Fatalf("transient flagged: %v", v)
	}
}

func TestReadLatest(t *testing.T) {
	v := feed(t, AllInvariants(), []obs.Event{
		acc(0, 0, sema.AccInvalid),
		data(1, 0, 0), acc(1, 0, sema.AccReadWrite),
		deliver(1, 0),
		write(1, 0, 1),
		// Node 2 is served a stale copy (version 0) and reads it.
		data(2, 0, 0), acc(2, 0, sema.AccReadOnly),
		acc(1, 0, sema.AccReadOnly),
		deliver(2, 0),
		read(2, 0, 0),
	})
	if v == nil || v.Invariant != "read-latest" {
		t.Fatalf("want read-latest violation, got %v", v)
	}
	if !strings.Contains(v.Detail, "version 0") || !strings.Contains(v.Detail, "version 1") {
		t.Fatalf("detail %q lacks versions", v.Detail)
	}
}

func TestReadUnderInvalidAccess(t *testing.T) {
	v := feed(t, AllInvariants(), []obs.Event{
		read(2, 0, 0), // node 2 never acquired the block
	})
	if v == nil || v.Invariant != "swmr" {
		t.Fatalf("want access violation, got %v", v)
	}
}

func TestNoLostWrites(t *testing.T) {
	// Node 1 writes version 1, then every copy of it disappears: node 1 is
	// invalidated without the data reaching home (node 0 keeps version 0).
	v := feed(t, AllInvariants(), []obs.Event{
		acc(0, 0, sema.AccInvalid),
		data(1, 0, 0), acc(1, 0, sema.AccReadWrite),
		deliver(1, 0),
		write(1, 0, 1),
		acc(1, 0, sema.AccInvalid),
		deliver(1, 0),
	})
	if v == nil || v.Invariant != "no-lost-writes" {
		t.Fatalf("want no-lost-writes violation, got %v", v)
	}
}

func TestLatestAtHomeSurvives(t *testing.T) {
	// The writeback reaches home before the writer is invalidated: fine,
	// even though home's access mode is Invalid at end of run.
	v := feed(t, AllInvariants(), []obs.Event{
		acc(0, 0, sema.AccInvalid),
		data(1, 0, 0), acc(1, 0, sema.AccReadWrite),
		deliver(1, 0),
		write(1, 0, 1),
		data(0, 0, 1), // writeback payload lands at home
		acc(1, 0, sema.AccInvalid),
		deliver(0, 0),
	})
	if v != nil {
		t.Fatalf("writeback run flagged: %v", v)
	}
}

func TestSWMROnlySkipsDataChecks(t *testing.T) {
	v := feed(t, SWMROnly(), []obs.Event{
		data(1, 0, 0), acc(1, 0, sema.AccReadOnly),
		acc(0, 0, sema.AccReadOnly),
		deliver(1, 0),
		read(1, 0, 99), // wrong version: ignored without Data
	})
	if v != nil {
		t.Fatalf("SWMR-only run flagged: %v", v)
	}
}

func TestBufferedWritersExempt(t *testing.T) {
	// Buffered-mode writers coexisting with readers is the whole point of
	// weak ordering; SWMR must not flag it.
	v := feed(t, SWMROnly(), []obs.Event{
		acc(0, 0, sema.AccReadOnly),
		acc(1, 0, sema.AccBuffered),
		acc(2, 0, sema.AccBuffered),
		deliver(0, 0),
		write(1, 0, 1),
		write(2, 0, 2),
	})
	if v != nil {
		t.Fatalf("buffered run flagged: %v", v)
	}
}

func TestViolationContext(t *testing.T) {
	c := New(Config{Nodes: 3, Blocks: 2, Inv: AllInvariants()})
	evs := []obs.Event{
		acc(1, 0, sema.AccReadWrite),
		deliver(1, 0),
	}
	for _, ev := range evs {
		c.Emit(ev)
	}
	v := c.Finish()
	if v == nil {
		t.Fatal("no violation")
	}
	if len(v.Context) != 2 {
		t.Fatalf("context has %d events, want 2", len(v.Context))
	}
	if v.Context[0].Seq != 0 || v.Context[1].Seq != 1 {
		t.Fatalf("context seqs = %d,%d", v.Context[0].Seq, v.Context[1].Seq)
	}
	if s := obs.FormatEvent(v.Context[0], obs.Names{}); !strings.Contains(s, "Access") {
		t.Fatalf("context render: %s", s)
	}
	if !strings.Contains(v.Error(), "swmr") {
		t.Fatalf("error: %s", v.Error())
	}
}

func TestFirstViolationLatched(t *testing.T) {
	c := New(Config{Nodes: 3, Blocks: 2, Inv: AllInvariants()})
	c.Emit(acc(1, 0, sema.AccReadWrite))
	c.Emit(deliver(1, 0)) // first: swmr
	c.Emit(read(2, 1, 5)) // would be another violation
	v := c.Finish()
	if v == nil || v.Invariant != "swmr" || v.Seq != 1 {
		t.Fatalf("latched violation = %+v", v)
	}
}

// TestViolationContextRing: the context is the last contextSize events,
// oldest first, with their sequence numbers, whether the violation comes
// after fewer, exactly or more events than the ring holds — and a Reset
// checker judging the same stream again reports the identical violation.
func TestViolationContextRing(t *testing.T) {
	c := New(Config{Nodes: 3, Blocks: 2, Inv: AllInvariants()})
	for _, n := range []int{2, 5, contextSize, contextSize + 1, 3*contextSize + 7} {
		// n-2 data events on block 1 (harmless, and told apart by value),
		// then a second read-write copy of block 0 judged at a boundary.
		var evs []obs.Event
		for i := 0; i < n-2; i++ {
			evs = append(evs, data(2, 1, int64(100+i)))
		}
		evs = append(evs, acc(1, 0, sema.AccReadWrite), deliver(1, 0))
		var want []obs.Event
		for i, ev := range evs {
			ev.Seq = int64(i)
			want = append(want, ev)
		}
		want = want[max(0, n-contextSize):]

		var got [2]*Violation
		for i := range got {
			c.Reset()
			for _, ev := range evs {
				c.Emit(ev)
			}
			got[i] = c.Finish()
			if got[i] == nil {
				t.Fatalf("%d events: no violation", n)
			}
		}
		if !reflect.DeepEqual(got[0].Context, want) {
			t.Errorf("%d events: context\n  got  %v\n  want %v", n, got[0].Context, want)
		}
		if got[0].Seq != int64(n-1) {
			t.Errorf("%d events: violation at event %d, want %d", n, got[0].Seq, n-1)
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%d events: the reset checker reported\n  %+v\n  not %+v", n, got[1], got[0])
		}
	}
}
