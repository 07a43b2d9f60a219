package manifest

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"teapot/internal/obs"
)

func validManifest() *Manifest {
	return &Manifest{
		ManifestVersion: Version,
		Tool:            "teapot-verify",
		Protocol:        "stache",
		Nodes:           2,
		Blocks:          1,
		Net:             "reorder=1",
		Coverage: &obs.CoverageReport{
			Dispatch:    map[string]uint64{"Home_Idle.GET_RO_REQ": 3},
			Transitions: map[string]uint64{"Home_Idle.GET_RO_REQ->Home_RS": 3},
		},
		MC: &MCStats{States: 10, Transitions: 12, MaxDepth: 4, Workers: 1},
	}
}

func TestEncodeDeterministic(t *testing.T) {
	m := validManifest()
	a, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("two encodings of the same manifest differ")
	}
	// Map keys sort and HTML escaping is off: the "->" in transition keys
	// must survive literally.
	if !strings.Contains(string(a), "Home_Idle.GET_RO_REQ->Home_RS") {
		t.Errorf("transition key mangled in:\n%s", a)
	}
	if strings.Contains(string(a), `\u003e`) {
		t.Errorf("HTML escaping leaked into:\n%s", a)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	m := validManifest()
	m.FlightRecorder = []string{"#0 @0 Send node0 blk0"}
	if err := Write(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip changed the manifest:\n%+v\nvs\n%+v", got, m)
	}
}

func TestValidate(t *testing.T) {
	bad := func(name string, mut func(*Manifest)) {
		m := validManifest()
		mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid manifest", name)
		}
	}
	bad("version", func(m *Manifest) { m.ManifestVersion = 99 })
	bad("tool", func(m *Manifest) { m.Tool = "" })
	bad("protocol", func(m *Manifest) { m.Protocol = "" })
	bad("geometry", func(m *Manifest) { m.Nodes = 0 })
	bad("no stats", func(m *Manifest) { m.MC = nil })
	bad("two stats", func(m *Manifest) { m.Sim = &SimStats{} })
	bad("litmus plus mc stats", func(m *Manifest) { m.Litmus = &LitmusStats{Tests: 1} })
	bad("coverage without dispatch", func(m *Manifest) { m.Coverage = &obs.CoverageReport{} })
	if err := validManifest().Validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
	m := validManifest()
	m.MC = nil
	m.Litmus = &LitmusStats{Corpus: "testdata/litmus", Mode: "all", Tests: 10}
	if err := m.Validate(); err != nil {
		t.Errorf("litmus-only manifest rejected: %v", err)
	}
}

// TestSchemaKeys pins the top-level JSON key set — the manifest schema
// consumers (teapot cover) key on.
func TestSchemaKeys(t *testing.T) {
	m := validManifest()
	m.Obs = &ObsSummary{Events: 5}
	m.Seed = 7
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"manifest_version", "tool", "protocol", "nodes", "blocks", "net", "seed", "coverage", "obs", "mc"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("encoded manifest missing key %q", key)
		}
	}
	if _, ok := raw["sim"]; ok {
		t.Error("nil sim stats should be omitted")
	}
}

// FuzzManifest: a manifest is read back from a file anyone may have edited
// (teapot cover), so any input is either refused with an error that says it
// is the manifest that was refused, or decodes to a manifest whose encoding
// survives decode → Encode unchanged. Seeds are a verify manifest with a
// counterexample, a sim, a fuzz and a litmus manifest, and two refusals.
func FuzzManifest(f *testing.F) {
	verify := validManifest()
	verify.MC.Violation = &Violation{Kind: "deadlock", Msg: "network empty",
		Waits: []string{"node 1 block 0 in Cache_Inv_To_RO handles GET_RO_RESP"},
		Trace: []string{"event RD_FAULT blk0 at node1"},
		Steps: []Step{{Kind: "event", Node: 1, Event: "RD_FAULT"}, {Kind: "drop", From: 1, To: 0, Msg: "GET_RO_REQ"}}}
	verify.FlightRecorder = []string{"#0 @0 Send node0 blk0"}
	sim := &Manifest{ManifestVersion: Version, Tool: "teapot-sim", Protocol: "stache", Nodes: 8, Blocks: 64, Seed: 7,
		Obs: &ObsSummary{Events: 42, ByKind: map[string]int64{"Send": 40, "Fault": 2}, MaxQueueDepth: 3},
		Sim: &SimStats{Cycles: 123456, Events: 42, ElapsedSec: 0.01, Accesses: 900, Faults: 2, Messages: 40}}
	fuzz := &Manifest{ManifestVersion: Version, Tool: "teapot-fuzz", Protocol: "stache-ft", Nodes: 3, Blocks: 1, Net: "drop=1", Seed: 2,
		Fuzz: &FuzzStats{Schedules: 100, ChoicePoints: 5000, Failed: true, Verdict: "coherence violation (swmr)", ShrunkDecisions: 1}}
	litmus := &Manifest{ManifestVersion: Version, Tool: "teapot-litmus", Protocol: "stache", Nodes: 2, Blocks: 2,
		Coverage: &obs.CoverageReport{Dispatch: map[string]uint64{"Cache_Inv.RD_FAULT": 1}, Transitions: map[string]uint64{}},
		Litmus:   &LitmusStats{Corpus: "testdata/litmus", Mode: "all", Tests: 11, MCStates: 1234}}
	for _, m := range []*Manifest{verify, sim, fuzz, litmus} {
		data, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"manifest_version": 2}`))
	f.Add([]byte(`{"manifest_version": 1, "tool": "teapot-verify", "protocol": "stache", "nodes": 2, "blocks": 1, "mc": {}, "coverage": {}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			if m != nil || !strings.HasPrefix(err.Error(), "manifest: ") {
				t.Fatalf("refused with a manifest %v, or with an error not naming the manifest: %v", m, err)
			}
			return
		}
		first, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded manifest does not encode: %v", err)
		}
		again, err := Decode(first)
		if err != nil {
			t.Fatalf("re-encoded manifest refused: %v\n%s", err, first)
		}
		second, err := again.Encode()
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("decode → Encode is not a fixpoint (err %v):\n%s\nthen\n%s", err, first, second)
		}
	})
}

func TestShape(t *testing.T) {
	m := validManifest()
	if got := m.Shape(); got != "stache 2x1 net=reorder=1" {
		t.Errorf("Shape = %q", got)
	}
	m.Net = ""
	if got := m.Shape(); got != "stache 2x1" {
		t.Errorf("Shape = %q", got)
	}
}

func TestMissingKeys(t *testing.T) {
	ref := map[string]uint64{"a": 1, "b": 2, "c": 3}
	other := map[string]uint64{"b": 9}
	if got := MissingKeys(ref, other); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Errorf("MissingKeys = %v, want [a c]", got)
	}
	if got := MissingKeys(other, ref); got != nil {
		t.Errorf("MissingKeys(other, ref) = %v, want nil", got)
	}
}
