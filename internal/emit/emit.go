// Package emit is the writer both text back ends embed: codegen's Go and
// murphi's Murphi. A back end writes its text through Render twice, once
// to measure it and once into a buffer allocated at that size, so the text
// it returns is the one large allocation it makes.
package emit

import (
	"strconv"
	"strings"
)

// Writer writes text, or in Render's measuring run counts it.
type Writer struct {
	b    strings.Builder
	decs []string // decs[i] is i in decimal
	tmp  []byte   // scratch for quoted strings and large numbers

	sizing bool // the measuring run: count bytes into size, write nothing
	size   int
}

// Render runs body, which writes the whole text through w, twice: once to
// measure the text, and once to write it into a buffer allocated at that
// size. It returns the text.
func (w *Writer) Render(body func()) string {
	w.sizing = true
	body()
	w.b.Grow(w.size)
	w.sizing = false
	body()
	return w.b.String()
}

// Write writes p, which makes w the destination of fmt's formatting.
func (w *Writer) Write(p []byte) (int, error) {
	if w.sizing {
		w.size += len(p)
	} else {
		w.b.Write(p)
	}
	return len(p), nil
}

// Put writes the strings in order.
func (w *Writer) Put(parts ...string) {
	for _, s := range parts {
		if w.sizing {
			w.size += len(s)
		} else {
			w.b.WriteString(s)
		}
	}
}

// PutName writes name as an identifier fragment, each '.' and '-' in it,
// which neither Go nor Murphi identifiers can hold, replaced by '_'.
func (w *Writer) PutName(name string) {
	if w.sizing {
		w.size += len(name)
		return
	}
	start := 0
	for i := 0; i < len(name); i++ {
		if c := name[i]; c == '.' || c == '-' {
			w.Put(name[start:i], "_")
			start = i + 1
		}
	}
	w.Put(name[start:])
}

// Quote writes s as a Go string literal.
func (w *Writer) Quote(s string) {
	w.tmp = strconv.AppendQuote(w.tmp[:0], s)
	w.Write(w.tmp)
}

// Int writes n in decimal.
func (w *Writer) Int(n int64) {
	w.tmp = strconv.AppendInt(w.tmp[:0], n, 10)
	w.Write(w.tmp)
}

// Dec spells n in decimal, a small non-negative one (a register, label,
// index or count) from a table built once per Writer.
func (w *Writer) Dec(n int) string {
	if n < 0 {
		return strconv.Itoa(n)
	}
	for len(w.decs) <= n {
		w.decs = append(w.decs, strconv.Itoa(len(w.decs)))
	}
	return w.decs[n]
}
