package analysis_test

import (
	"encoding/json"
	"testing"

	"teapot/internal/analysis"
	"teapot/internal/core"
)

// TestJSONReportGolden pins the machine-readable vet schema byte for byte:
// tools consuming `teapot vet -json` parse this
// shape, so schema drift must be a deliberate, test-visible change.
func TestJSONReportGolden(t *testing.T) {
	const src = `protocol P begin
  state A();
  state D();
  message GO;
end;
state P.A() begin
  message GO (id : ID; var info : INFO; src : NODE) begin Drop(); end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Enqueue(); end;
end;
state P.D() begin
  message GO (id : ID; var info : INFO; src : NODE) begin
    if (src < MyNode()) then Drop(); else Drop(); endif;
  end;
  message DEFAULT (id : ID; var info : INFO; src : NODE) begin Drop(); end;
end;
`
	a, err := core.Compile(core.Config{
		Name: "p.tea", Source: src, Optimize: true,
		HomeStart: "A", CacheStart: "A",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := analysis.Analyze(a.Protocol)
	cert := analysis.ProveSymmetry(a.Protocol)
	got, err := analysis.MarshalJSONReports([]*analysis.JSONReport{rep.JSON("p", cert)})
	if err != nil {
		t.Fatal(err)
	}
	const want = `[
  {
    "protocol": "p",
    "findings": [
      {
        "check": "vet:queue-stuck",
        "severity": "warning",
        "file": "p.tea",
        "line": 6,
        "col": 1,
        "msg": "state A enqueues messages but no handler transitions or resumes: the deferred queue never drains"
      },
      {
        "check": "vet:unreachable",
        "severity": "warning",
        "file": "p.tea",
        "line": 10,
        "col": 1,
        "msg": "state D is unreachable from the start states (A, A)"
      },
      {
        "check": "vet:symmetry",
        "severity": "info",
        "file": "p.tea",
        "line": 12,
        "col": 13,
        "msg": "handler D.GO is not node-symmetric: ordering compares node ids (instr 1: r4 := r2 < r3); symmetry reduction disabled"
      }
    ],
    "symmetry": {
      "protocol": "P",
      "node": {
        "equivariant": false,
        "witnesses": [
          {
            "handler": "D.GO",
            "index": 1,
            "instr": "r4 := r2 < r3",
            "line": 12,
            "col": 13,
            "reason": "ordering compares node ids"
          }
        ]
      },
      "block": {
        "equivariant": true
      }
    }
  }
]
`
	if string(got) != want {
		t.Errorf("json schema drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestJSONReportEmptyFindings: a clean protocol marshals findings as [],
// never null — consumers index without nil checks.
func TestJSONReportEmptyFindings(t *testing.T) {
	rep := &analysis.Report{}
	out, err := analysis.MarshalJSONReports([]*analysis.JSONReport{rep.JSON("clean", nil)})
	if err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Protocol string            `json:"protocol"`
		Findings []json.RawMessage `json:"findings"`
		Symmetry json.RawMessage   `json:"symmetry"`
	}
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded[0].Findings == nil {
		t.Error("findings marshaled as null, want []")
	}
	if decoded[0].Symmetry != nil {
		t.Error("nil cert marshaled a symmetry block")
	}
}
