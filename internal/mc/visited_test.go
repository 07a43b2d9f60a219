package mc

import (
	"fmt"
	"sync"
	"testing"
)

// TestVisitedCommitOrder: claims commit in (parent position, action
// ordinal) order, duplicate claims keep the minimum, and committed states
// are recognized in later layers.
func TestVisitedCommitOrder(t *testing.T) {
	vt := newVisited()
	layer := []int32{vt.addRoot("root", 0)}

	vt.claim([]byte("b"), 0, 2, 0)
	vt.claim([]byte("a"), 0, 1, 0)
	vt.claim([]byte("a"), 0, 0, 0) // duplicate from an earlier action: must win
	vt.claim([]byte("b"), 0, 3, 0) // worse duplicate: must lose

	next := vt.commit(layer)
	if len(next) != 2 {
		t.Fatalf("committed %d states, want 2", len(next))
	}
	if vt.arena[next[0]].key != "a" || vt.arena[next[0]].action != 0 {
		t.Errorf("first commit = %q action %d, want \"a\" action 0",
			vt.arena[next[0]].key, vt.arena[next[0]].action)
	}
	if vt.arena[next[1]].key != "b" || vt.arena[next[1]].action != 2 {
		t.Errorf("second commit = %q action %d, want \"b\" action 2",
			vt.arena[next[1]].key, vt.arena[next[1]].action)
	}
	for _, idx := range next {
		if vt.arena[idx].parent != 0 {
			t.Errorf("parent = %d, want 0", vt.arena[idx].parent)
		}
	}

	// Next layer: re-claiming committed states is a no-op.
	vt.claim([]byte("a"), 1, 0, 0)
	vt.claim([]byte("root"), 0, 0, 0)
	if got := vt.commit(next); len(got) != 0 {
		t.Errorf("re-claimed committed states were committed again: %d", len(got))
	}
}

// TestVisitedFingerprintCollision forces every key onto one fingerprint:
// full-key confirmation must keep distinct states distinct.
func TestVisitedFingerprintCollision(t *testing.T) {
	vt := newVisited()
	vt.hash = func([]byte) uint64 { return 42 }
	layer := []int32{vt.addRoot("root", 0)}

	const n = 20
	for i := 0; i < n; i++ {
		vt.claim([]byte(fmt.Sprintf("s%02d", i)), 0, int32(i), 0)
	}
	vt.claim([]byte("root"), 0, 5, 0) // colliding fingerprint AND previously committed
	next := vt.commit(layer)
	if len(next) != n {
		t.Fatalf("committed %d states under total fingerprint collision, want %d", len(next), n)
	}
	for i, idx := range next {
		if want := fmt.Sprintf("s%02d", i); vt.arena[idx].key != want {
			t.Errorf("commit %d = %q, want %q", i, vt.arena[idx].key, want)
		}
	}
	// All distinct keys re-claimed: every one must be recognized.
	for i := 0; i < n; i++ {
		vt.claim([]byte(fmt.Sprintf("s%02d", i)), 0, 0, 0)
	}
	if got := vt.commit(next); len(got) != 0 {
		t.Errorf("collision chain lost committed states: %d re-committed", len(got))
	}
}

// TestShardedVisitedRace hammers the table from many goroutines with
// overlapping keys — run under -race (scripts/check.sh does) — and then
// checks the merge kept the minimum claim for every key regardless of the
// interleaving.
func TestShardedVisitedRace(t *testing.T) {
	vt := newVisited()
	layer := []int32{vt.addRoot("root", 0)}

	const goroutines = 16
	const keys = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				// Every goroutine claims every key with a different
				// ordinal; the minimum (0, i) must survive.
				vt.claim([]byte(fmt.Sprintf("state-%03d", i)), 0, int32(i+g), 0)
			}
		}(g)
	}
	wg.Wait()

	next := vt.commit(layer)
	if len(next) != keys {
		t.Fatalf("committed %d states, want %d", len(next), keys)
	}
	for i, idx := range next {
		rec := vt.arena[idx]
		if want := fmt.Sprintf("state-%03d", i); rec.key != want {
			t.Errorf("commit %d = %q, want %q", i, rec.key, want)
		}
		if rec.action != int32(i) {
			t.Errorf("key %q kept claim ord %d, want minimum %d", rec.key, rec.action, i)
		}
	}
}
