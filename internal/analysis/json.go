package analysis

import (
	"bytes"
	"encoding/json"
)

// Machine-readable vet output (teapot vet -json). CI and the model
// checker's certificate loader share this one format: the findings list
// mirrors the human report line for line, and the symmetry certificate is
// embedded verbatim so a consumer never re-derives it from prose.

// JSONFinding is one diagnostic in machine-readable form.
type JSONFinding struct {
	Check    string `json:"check"`    // stable pass ID, e.g. "vet:coverage"
	Severity string `json:"severity"` // "error" | "warning" | "info"
	File     string `json:"file"`
	Line     int    `json:"line"` // 1-based; 0 when the finding has no position
	Col      int    `json:"col"`
	Msg      string `json:"msg"`
}

// JSONReport is the machine-readable vet report for one protocol.
type JSONReport struct {
	Protocol string        `json:"protocol"`
	Findings []JSONFinding `json:"findings"`
	Symmetry *SymmetryCert `json:"symmetry,omitempty"`
}

// JSON converts the report (already sorted by Run) for one protocol,
// attaching the symmetry certificate when provided.
func (r *Report) JSON(protocol string, cert *SymmetryCert) *JSONReport {
	out := &JSONReport{
		Protocol: protocol,
		Findings: make([]JSONFinding, 0, len(r.Findings)),
		Symmetry: cert,
	}
	for _, d := range r.Findings {
		out.Findings = append(out.Findings, JSONFinding{
			Check:    d.Check,
			Severity: d.Severity.String(),
			File:     d.File,
			Line:     d.Pos.Line,
			Col:      d.Pos.Col,
			Msg:      d.Msg,
		})
	}
	return out
}

// MarshalJSONReports renders a deterministic, indented JSON array of
// per-protocol reports (the exact bytes teapot vet -json prints). HTML
// escaping is off: IR witnesses quote instructions like "r4 := r2 < r3"
// and must survive a round trip readably.
func MarshalJSONReports(reports []*JSONReport) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
