package mc_test

import (
	goruntime "runtime"
	"testing"

	"teapot/internal/mc"
	"teapot/internal/netmodel"
	"teapot/internal/protocols"
	"teapot/internal/tempest"
)

// reuseShape is one configuration the world-reuse tests walk.
type reuseShape struct {
	name string
	cfg  func(t testing.TB) mc.Config
}

func namedConfig(name string, nodes, blocks int, net netmodel.Model) func(testing.TB) mc.Config {
	return func(t testing.TB) mc.Config {
		t.Helper()
		spec, err := protocols.Spec(name, nodes, blocks)
		if err != nil {
			t.Fatal(err)
		}
		spec.Net = net
		return spec.MCConfig()
	}
}

// litmusConfig is a scripted-client shape (store buffering with a CAS on
// top, over base Stache, 2 nodes / 2 blocks): the client plane — script
// positions, observed registers, block versions and contents — is part of
// the encoding, and data messages carry values.
func litmusConfig(t testing.TB) mc.Config {
	t.Helper()
	spec, err := protocols.Spec("stache", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	client, err := mc.NewClient(spec.Proto, [][]tempest.Op{
		{{Kind: tempest.OpWrite, Addr: 0, Val: 1}, {Kind: tempest.OpRead, Addr: 1}, {Kind: tempest.OpCAS, Addr: 1, Val: 7, Expect: 2}},
		{{Kind: tempest.OpWrite, Addr: 1, Val: 2}, {Kind: tempest.OpRead, Addr: 0}, {Kind: tempest.OpRead, Addr: 1}},
	}, []int64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	spec.Events = nil // the script is the only event source
	spec.Client = client
	return spec.MCConfig()
}

// reuseShapes are the shapes reuse must be invisible on: faults with
// timeouts and a mask variable (stache-ft), continuations and reordering
// (lcm), and the client plane.
var reuseShapes = []reuseShape{
	{"stache-ft-2n-drop-dup", namedConfig("stache-ft", 2, 1, netmodel.Model{MaxDrops: 1, MaxDups: 1})},
	{"lcm-2n-reorder", namedConfig("lcm", 2, 1, netmodel.Model{Reorder: 1})},
	{"litmus-sb-cas", litmusConfig},
}

// TestDecodeIntoDirtyWorld: a worker decodes every state it expands into
// the one world it keeps, so what that world held before — another state,
// an action's leftovers, a handler abandoned by a protocol error, coverage
// sinks — must not show. The protocol errors come from base Stache under a
// duplicate, which it has no tolerance for (the bundled seeded-bug
// protocols violate invariants without ever failing a handler).
func TestDecodeIntoDirtyWorld(t *testing.T) {
	shapes := append([]reuseShape{
		{"stache-2n-dup", namedConfig("stache", 2, 1, netmodel.Model{MaxDups: 1})},
	}, reuseShapes...)
	var all mc.DirtyStats
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			st := mc.CheckDecodeIntoDirtyWorld(t, sh.cfg(t), 1, 12, 30)
			t.Logf("%+v", st)
			if st.Decodes < 100 || st.Applied == 0 || st.Sinks == 0 || st.SharedBare == 0 {
				t.Errorf("walk too thin to mean anything: %+v", st)
			}
			all.Merge(st)
		})
	}
	if all.MidHandler == 0 {
		t.Errorf("no world was left mid-handler by a protocol error: %+v", all)
	}
}

// TestExpandAllocs is the checker's allocation contract per transition: a
// worker decodes into a world it keeps, clones into a scratch world it
// keeps and runs handlers on a register stack, and argument-less state
// values, save-nothing continuation records and support-call scratch are
// built once per engine, so what is left to allocate is what a state really
// adds — state values with arguments, messages and continuations that save
// registers. The visited store adds nothing per state (TestVisitedAllocs);
// this shape measures 5.2.
func TestExpandAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	cfg := namedConfig("stache-ft", 2, 1, netmodel.Model{MaxDrops: 1})(t)
	cfg.Workers = 1
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	res, err := mc.Check(cfg)
	goruntime.ReadMemStats(&after)
	if err != nil || res.Violation != nil {
		t.Fatalf("err %v, violation %v", err, res.Violation)
	}
	perTransition := float64(after.Mallocs-before.Mallocs) / float64(res.Transitions)
	t.Logf("%d states, %d transitions, %.1f allocations per transition", res.States, res.Transitions, perTransition)
	if perTransition > 6.5 {
		t.Errorf("%.1f allocations per transition, want at most 6.5", perTransition)
	}
}

// TestVisitedAllocs: see mc.CheckVisitedAllocs.
func TestVisitedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	mc.CheckVisitedAllocs(t)
}

// FuzzRestore: Restore takes its key from outside the checker (a snapshot
// someone saved), so a damaged key must come back as an error — never a
// panic, never an allocation sized by a corrupt count — and whatever world
// it does return must be whole enough to re-encode. Seeds are snapshots
// along random walks of the three reuse shapes, plus every truncation of
// one snapshot per shape.
func FuzzRestore(f *testing.F) {
	cfgs := make([]mc.Config, len(reuseShapes))
	for i, sh := range reuseShapes {
		cfgs[i] = sh.cfg(f)
		keys := mc.WalkSnapshots(f, cfgs[i], 1, 3, 20)
		for _, key := range keys {
			f.Add(uint8(i), []byte(key))
		}
		last := keys[len(keys)-1]
		for cut := 0; cut < len(last); cut++ {
			f.Add(uint8(i), []byte(last[:cut]))
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, key []byte) {
		cfg := cfgs[int(shape)%len(cfgs)]
		w, err := cfg.Restore(string(key))
		if err != nil {
			if w != nil {
				t.Fatal("Restore returned a world with its error")
			}
			return
		}
		if _, err := w.Snapshot(); err != nil {
			t.Fatalf("restored world does not re-encode: %v", err)
		}
	})
}

// TestRestoreTruncated: every proper prefix of a snapshot is refused (the
// fuzz seeds only require "no panic"; this pins the error).
func TestRestoreTruncated(t *testing.T) {
	for _, sh := range reuseShapes {
		cfg := sh.cfg(t)
		keys := mc.WalkSnapshots(t, cfg, 2, 1, 25)
		key := keys[len(keys)-1]
		if _, err := cfg.Restore(key); err != nil {
			t.Fatalf("%s: intact snapshot: %v", sh.name, err)
		}
		for cut := 0; cut < len(key); cut++ {
			if w, err := cfg.Restore(key[:cut]); err == nil || w != nil {
				t.Errorf("%s: snapshot truncated to %d of %d bytes restored (err %v)", sh.name, cut, len(key), err)
			}
		}
		if _, err := cfg.Restore(key + "\x00"); err == nil {
			t.Errorf("%s: snapshot with a trailing byte restored", sh.name)
		}
	}
}
