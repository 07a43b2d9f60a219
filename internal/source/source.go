// Package source provides source positions, spans, and diagnostics for the
// Teapot compiler. Every token and AST node carries a Pos so that semantic
// errors and verification counterexamples can point back into protocol text.
package source

import (
	"fmt"
	"sort"
	"strings"
)

// Pos is a position in a source file: 1-based line and column plus the byte
// offset. The zero Pos is "no position".
type Pos struct {
	Offset int // byte offset, 0-based
	Line   int // 1-based
	Col    int // 1-based, in bytes
}

// IsValid reports whether the position carries real location information.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Span is a half-open range of source text.
type Span struct {
	Start Pos
	End   Pos
}

func (s Span) String() string { return s.Start.String() }

// File wraps a named chunk of Teapot source text and can convert byte
// offsets to positions.
type File struct {
	Name string
	Text string

	lineStarts []int // byte offset of each line start
}

// NewFile builds a File and indexes its line starts in a table allocated
// at its final size.
func NewFile(name, text string) *File {
	f := &File{Name: name, Text: text}
	f.lineStarts = make([]int, 1, strings.Count(text, "\n")+1)
	for off := 0; ; {
		i := strings.IndexByte(text[off:], '\n')
		if i < 0 {
			break
		}
		off += i + 1
		f.lineStarts = append(f.lineStarts, off)
	}
	return f
}

// PosFor converts a byte offset into a Pos.
func (f *File) PosFor(offset int) Pos {
	if offset < 0 {
		offset = 0
	}
	if offset > len(f.Text) {
		offset = len(f.Text)
	}
	line := sort.Search(len(f.lineStarts), func(i int) bool { return f.lineStarts[i] > offset }) - 1
	return Pos{Offset: offset, Line: line + 1, Col: offset - f.lineStarts[line] + 1}
}

// Line returns the text of the 1-based line number, without the newline.
func (f *File) Line(n int) string {
	if n < 1 || n > len(f.lineStarts) {
		return ""
	}
	start := f.lineStarts[n-1]
	end := len(f.Text)
	if n < len(f.lineStarts) {
		end = f.lineStarts[n] - 1
	}
	return strings.TrimRight(f.Text[start:end], "\r")
}

// Severity grades a diagnostic. The zero value is SevError so that layers
// that predate severities (the semantic checker) keep reporting errors.
type Severity int

// Severities, most severe first.
const (
	SevError Severity = iota
	SevWarning
	SevInfo
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	case SevInfo:
		return "info"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Diagnostic is a single compiler message. Analyses additionally tag each
// diagnostic with a severity and a stable check ID (e.g. "vet:coverage") so
// reports can be filtered and compared across runs; both are optional and
// default to an untagged error, which is how the front end reports.
type Diagnostic struct {
	File     string
	Pos      Pos
	Msg      string
	Check    string   // stable check ID, "" for front-end errors
	Severity Severity // SevError unless set
}

func (d Diagnostic) Error() string {
	tag := ""
	if d.Check != "" {
		tag = fmt.Sprintf(" [%s]", d.Check)
	}
	if d.File == "" {
		return fmt.Sprintf("%s: %s%s", d.Pos, d.Msg, tag)
	}
	return fmt.Sprintf("%s:%s: %s%s", d.File, d.Pos, d.Msg, tag)
}

// ErrorList accumulates diagnostics; it implements error when non-empty.
type ErrorList struct {
	List []Diagnostic
}

// Add appends a diagnostic.
func (e *ErrorList) Add(file string, pos Pos, format string, args ...any) {
	e.List = append(e.List, Diagnostic{File: file, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Len returns the number of accumulated diagnostics.
func (e *ErrorList) Len() int { return len(e.List) }

// Err returns the list as an error, or nil if empty.
func (e *ErrorList) Err() error {
	if len(e.List) == 0 {
		return nil
	}
	return e
}

func (e *ErrorList) Error() string {
	switch len(e.List) {
	case 0:
		return "no errors"
	case 1:
		return e.List[0].Error()
	}
	const max = 20
	var b strings.Builder
	for i, d := range e.List {
		if i == max {
			fmt.Fprintf(&b, "\n(and %d more errors)", len(e.List)-max)
			break
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(d.Error())
	}
	return b.String()
}

// Sort orders diagnostics by file, position, check ID, and finally message,
// so that multi-error output from any mix of layers (front end, analyses) is
// byte-identical across runs.
func (e *ErrorList) Sort() {
	SortDiagnostics(e.List)
}

// SortDiagnostics orders a diagnostic slice by file, position, check ID,
// and message (the stable report order shared by all layers).
func SortDiagnostics(list []Diagnostic) {
	sort.SliceStable(list, func(i, j int) bool {
		a, b := list[i], list[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Offset != b.Pos.Offset {
			return a.Pos.Offset < b.Pos.Offset
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}
