package mc

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestSlotsModel drives a slots table against a map from value to tag,
// most values under one tag so that they share one probe chain, through
// several doublings. After every add a tag's probe must return exactly its
// values.
func TestSlotsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := slots{first: 4}
	tags := map[uint32]uint32{} // value → tag
	check := func(step int) {
		for _, tag := range []uint32{42, 43, 42 + 1<<20} {
			var got, want []uint32
			for v, i := s.find(tag, int(tag)); v != 0; v, i = s.find(tag, i) {
				got = append(got, v)
			}
			slices.Sort(got)
			for v := uint32(1); v <= uint32(len(tags)); v++ {
				if tags[v] == tag {
					want = append(want, v)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: tag %d probes %v, holds %v", step, tag, got, want)
			}
		}
	}
	for step := range 600 {
		// Most values share tag 42; 42 + 2²⁰ starts where 42 does in any
		// table smaller than 2²⁰ slots; 43 is its neighbour.
		tag := []uint32{42, 42, 42, 43, 42 + 1<<20}[rng.Intn(5)]
		v := uint32(len(tags) + 1)
		tags[v] = tag
		s.add(tag, v)
		check(step)
	}
	if len(s.w) < 4<<6 || s.used != len(tags) {
		t.Fatalf("%d slots, %d used, %d values: fewer doublings than meant", len(s.w), s.used, len(tags))
	}
	s.reset()
	if v, _ := s.find(42, 42); s.used != 0 || len(s.w) == 0 || v != 0 {
		t.Fatalf("reset: %d used, %d slots, value %d found", s.used, len(s.w), v)
	}
}

// TestInternerModel interns keys against a map from key to id under a
// constant fingerprint — every key in one probe chain, so only comparing
// bytes tells them apart — through several doublings of its table and a
// dozen chunks, with the empty key, keys that fill a chunk exactly, and
// keys longer than a chunk, which it must refuse without taking an id.
func TestInternerModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const fp = 7
	n := interner{arena: arena{first: 8, size: 64, most: 1 << 10}, slots: slots{first: 4}}
	ids := map[string]uint32{}
	var keys []string
	for range 2000 {
		var key string
		switch r := rng.Intn(20); {
		case r == 0:
			key = ""
		case r == 1:
			key = strings.Repeat("x", 64)
		case r == 2:
			key = strings.Repeat("y", 65)
		default:
			key = fmt.Sprintf("k%d", rng.Intn(300))
		}
		id, ok := n.intern([]byte(key), fp)
		want, seen := ids[key]
		if len(key) > 64 {
			if ok {
				t.Fatalf("a %d-byte key interned into 64-byte chunks", len(key))
			}
			continue
		}
		if !seen {
			want = uint32(len(keys))
			ids[key], keys = want, append(keys, key)
		}
		if !ok || id != want {
			t.Fatalf("intern(%q) = %d, %v; want %d", key, id, ok, want)
		}
	}
	var size int64
	for id, key := range keys {
		if got := n.at(uint32(id)); string(got) != key {
			t.Fatalf("id %d reads %q, was %q", id, got, key)
		}
		if id2, ok := n.lookup([]byte(key), fp); !ok || id2 != uint32(id) {
			t.Fatalf("lookup(%q) = %d, %v; want %d", key, id2, ok, id)
		}
		size += int64(len(key))
	}
	if _, ok := n.lookup([]byte("absent"), fp); ok {
		t.Fatal("lookup found a key never interned")
	}
	if n.size != size || len(n.refs) != len(keys) || n.slots.used != len(keys) {
		t.Fatalf("size %d, %d refs, %d used; want %d, %d, %d", n.size, len(n.refs), n.slots.used, size, len(keys), len(keys))
	}
	if len(n.arena.chunks) < 12 || len(n.slots.w) < 4<<6 {
		t.Fatalf("%d chunks, %d slots: fewer than meant", len(n.arena.chunks), len(n.slots.w))
	}
	for i, c := range n.arena.chunks {
		if cap(c) < min(8<<i, 64) || cap(c) > 64 {
			t.Fatalf("chunk %d has capacity %d, want %d (or more, up to 64, for a longer key)", i, cap(c), min(8<<i, 64))
		}
	}
}

// TestArenaFull: an arena at its chunk limit refuses what does not fit the
// last chunk, and writes nothing; what it took stays where its locator
// says.
func TestArenaFull(t *testing.T) {
	a := arena{first: 4, size: 16, most: 3}
	var locs []uint64
	var took [][]byte
	for i := 0; ; i++ {
		b := bytes.Repeat([]byte{byte('a' + i)}, 3)
		loc, ok := a.add(b)
		if !ok {
			break
		}
		locs, took = append(locs, loc), append(took, b)
	}
	if len(a.chunks) != 3 || len(took) != 1+2+5 { // chunks of 4, 8 and 16
		t.Fatalf("%d chunks took %d pieces, want 3 and 8", len(a.chunks), len(took))
	}
	if _, ok := a.add([]byte("z")); !ok {
		t.Fatal("the last chunk's last byte refused")
	}
	before, lens := make([][]byte, len(a.chunks)), make([]int, len(a.chunks))
	for i, c := range a.chunks {
		before[i], lens[i] = bytes.Clone(c[:cap(c)]), len(c)
	}
	for _, b := range [][]byte{[]byte("zz"), bytes.Repeat([]byte("z"), 17)} {
		if _, ok := a.add(b); ok {
			t.Fatalf("a full arena took %d bytes", len(b))
		}
	}
	for i, c := range a.chunks {
		if len(c) != lens[i] || !bytes.Equal(c[:cap(c)], before[i]) || len(a.chunks) != 3 {
			t.Fatalf("chunk %d changed after the arena filled", i)
		}
	}
	for i, loc := range locs {
		if got := a.at(loc)[:3]; !bytes.Equal(got, took[i]) {
			t.Fatalf("piece %d reads %q at %#x, was %q", i, got, loc, took[i])
		}
	}
	if a.bytes() != 4+8+16 {
		t.Fatalf("retains %d bytes, want 28", a.bytes())
	}
}

// CheckProbeAllocs is the tables' allocation contract (TestProbeAllocs runs
// it, where raceEnabled is in reach): probing a slots table, and looking a
// string up in an interner, hit or miss, allocate nothing.
func CheckProbeAllocs(t *testing.T) {
	n := interner{arena: arena{first: 64, size: arenaChunk, most: 1 << 10}, slots: slots{first: 8}}
	for i := range 1000 {
		n.intern(fmt.Appendf(nil, "seg%d", i), uint64(i%13))
	}
	hit, miss := []byte("seg999"), []byte("seg1000")
	if got := testing.AllocsPerRun(100, func() {
		for v, i := n.slots.find(999%13, 999%13); v != 0; v, i = n.slots.find(999%13, i) {
		}
		if _, ok := n.lookup(hit, 999%13); !ok {
			t.Fatal("lookup missed an interned string")
		}
		if _, ok := n.lookup(miss, 1000%13); ok {
			t.Fatal("lookup found a string never interned")
		}
	}); got != 0 {
		t.Errorf("probing made %v allocations, want 0", got)
	}
}
