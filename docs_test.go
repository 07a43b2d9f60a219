// Tests that hold the documents to the program: EXPERIMENTS.md's reproduced
// artifacts are checked `teapot` output, README's flag table is the flags,
// and every DESIGN.md section the other documents cite exists.
package teapot_test

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// A checked block in EXPERIMENTS.md is a marker line naming one command,
// then a fenced block holding what it prints:
//
//	<!-- teapot tables -table 3 | mask: Workers -->
//	```text
//	Table 3: Protocol verification
//	...
//	```
//
// Options after the command, separated by "|":
//
//	mask: A, B   blank what depends on the machine: a table column whose
//	             header is A, or else the number before the word A
//	part: P      keep only the paragraph of the output that starts with P
//	slow         skip under the race detector and -short (a block over
//	             about a second under the race detector)
//
// Durations ("12.3ms", "0s") are always blanked.
var markerLine = regexp.MustCompile(`^<!-- teapot (.*?) -->$`)

// checkedBlock is one marker and the block under it.
type checkedBlock struct {
	line        int // of the marker, 1-based
	args        string
	mask        []string
	part        string
	slow        bool
	want        string
	description string
}

func parseCheckedBlocks(t *testing.T, doc string) []checkedBlock {
	t.Helper()
	lines := strings.Split(doc, "\n")
	var blocks []checkedBlock
	for i := 0; i < len(lines); i++ {
		m := markerLine.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		fields := strings.Split(m[1], "|")
		b := checkedBlock{line: i + 1, args: strings.TrimSpace(fields[0])}
		for _, opt := range fields[1:] {
			key, val, _ := strings.Cut(strings.TrimSpace(opt), ":")
			val = strings.TrimSpace(val)
			switch key {
			case "mask":
				for _, name := range strings.Split(val, ",") {
					b.mask = append(b.mask, strings.TrimSpace(name))
				}
			case "part":
				b.part = val
			case "slow":
				b.slow = true
			default:
				t.Fatalf("EXPERIMENTS.md:%d: unknown marker option %q", b.line, key)
			}
		}
		if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "```") {
			t.Fatalf("EXPERIMENTS.md:%d: marker not followed by a fenced block", b.line)
		}
		end := i + 2
		for end < len(lines) && !strings.HasPrefix(lines[end], "```") {
			end++
		}
		if end == len(lines) {
			t.Fatalf("EXPERIMENTS.md:%d: fenced block never closed", b.line)
		}
		b.want = strings.Join(lines[i+2:end], "\n")
		b.description = fmt.Sprintf("EXPERIMENTS.md:%d: teapot %s", b.line, m[1])
		blocks = append(blocks, b)
		i = end
	}
	return blocks
}

// duration matches a time.Duration with the padding before it, which a
// right-aligned column sizes to the value.
var duration = regexp.MustCompile(` *\b(\d+h)?(\d+m)?\d+(\.\d+)?(ns|µs|us|ms|s)\b`)

// maskOutput blanks what the block's mask names, and every duration.
func maskOutput(text string, mask []string) string {
	lines := strings.Split(text, "\n")
	for _, name := range mask {
		if from, to, header := columnSpan(lines, name); header >= 0 {
			for i := header + 1; i < len(lines) && strings.TrimSpace(lines[i]) != ""; i++ {
				r := []rune(lines[i])
				for j := from; j < to && j < len(r); j++ {
					r[j] = ' '
				}
				lines[i] = string(r)
			}
			continue
		}
		before := regexp.MustCompile(`\b\d+ ` + regexp.QuoteMeta(name) + `\b`)
		for i := range lines {
			lines[i] = before.ReplaceAllString(lines[i], "# "+name)
		}
	}
	for i := range lines {
		lines[i] = strings.TrimRight(duration.ReplaceAllString(lines[i], " #"), " ")
	}
	return strings.Trim(strings.Join(lines, "\n"), "\n")
}

// columnSpan finds the table header holding name as a field and returns the
// rune span of its right-aligned column: from the end of the field before
// it to the end of the name.
func columnSpan(lines []string, name string) (from, to, header int) {
	for i, line := range lines {
		r := []rune(line)
		prevEnd := 0
		for j := 0; j < len(r); {
			for j < len(r) && r[j] == ' ' {
				j++
			}
			k := j
			for k < len(r) && r[k] != ' ' {
				k++
			}
			if k > j && string(r[j:k]) == name {
				return prevEnd, k, i
			}
			prevEnd = k
			j = k
		}
	}
	return 0, 0, -1
}

// paragraph returns the blank-line-separated paragraph of text that starts
// with prefix.
func paragraph(text, prefix string) string {
	for _, p := range strings.Split(text, "\n\n") {
		if p = strings.Trim(p, "\n"); strings.HasPrefix(p, prefix) {
			return p
		}
	}
	return ""
}

// lineDiff lists the lines where want and got differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  - %s\n  + %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// TestExperimentsCurrent runs the command above each checked block of
// EXPERIMENTS.md in process and requires the block to be what it prints,
// masked columns and durations aside. A failure names the command and shows
// the lines that differ (- the document, + the program); paste the new
// output into the block if the change is meant.
func TestExperimentsCurrent(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := parseCheckedBlocks(t, string(doc))
	if len(blocks) == 0 {
		t.Fatal("EXPERIMENTS.md has no checked blocks")
	}
	outputs := map[string]string{} // one run per command line
	for _, b := range blocks {
		if b.slow && (raceEnabled || testing.Short()) {
			continue
		}
		out, ok := outputs[b.args]
		if !ok {
			status, stdout, stderr := teapot(strings.Fields(b.args)...)
			if status == 2 {
				t.Errorf("%s: no verdict (status 2):\n%s", b.description, stderr)
				continue
			}
			out, outputs[b.args] = stdout, stdout
		}
		if b.part != "" {
			out = paragraph(out, b.part)
		}
		if got, want := maskOutput(out, b.mask), maskOutput(b.want, b.mask); got != want {
			t.Errorf("%s: the block is not what the command prints:\n%s", b.description, lineDiff(want, got))
		}
	}
}

// TestReadmeFlags holds README's table of shared flags to the flags: each
// row's "taken by" column must name exactly the subcommands whose -h lists
// that flag. It also requires every "DESIGN.md §N" that README.md and
// EXPERIMENTS.md cite to be a heading of DESIGN.md.
func TestReadmeFlags(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// Every subcommand's flags, from its own usage text.
	_, usage, _ := teapot("help")
	flagsOf := map[string][]string{}
	for _, line := range strings.Split(usage, "\n")[1:] {
		sub, _, ok := strings.Cut(strings.TrimSpace(line), " ")
		if !ok || !strings.HasPrefix(line, "  ") {
			continue
		}
		_, _, help := teapot(sub, "-h")
		for _, l := range strings.Split(help, "\n") {
			if strings.HasPrefix(l, "  -") {
				flagsOf[sub] = append(flagsOf[sub], strings.Fields(l)[0])
			}
		}
	}
	if len(flagsOf) < 8 {
		t.Fatalf("read the flags of %d subcommands from usage, want 8:\n%s", len(flagsOf), usage)
	}

	parens := regexp.MustCompile(`\([^)]*\)`)
	rows, inTable := 0, false
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| flag | taken by |") {
			inTable = true
			continue
		}
		if !inTable || !strings.HasPrefix(line, "| `-") {
			inTable = inTable && strings.HasPrefix(line, "|")
			continue
		}
		cells := strings.Split(line, "|")
		flagName := strings.Fields(strings.Trim(cells[1], " `"))[0]
		var want []string
		for _, sub := range strings.FieldsFunc(parens.ReplaceAllString(cells[2], ""), func(r rune) bool { return r == ',' || r == ';' }) {
			want = append(want, strings.TrimSpace(sub))
		}
		var got []string
		for sub, flags := range flagsOf {
			if slices.Contains(flags, flagName) {
				got = append(got, sub)
			}
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(want, got) {
			t.Errorf("README row %s: taken by %v, but the subcommands listing it in -h are %v", flagName, want, got)
		}
		rows++
	}
	if rows < 8 {
		t.Errorf("read %d rows of README's shared-flag table, want at least 8", rows)
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#+ (\d+(?:\.\d+)*)\.? `).FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	cite := regexp.MustCompile("DESIGN(?:\\.md)?`? §(\\d+(?:\\.\\d+)*)")
	for _, name := range []string{"README.md", "EXPERIMENTS.md"} {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(doc), -1) {
			if !sections[m[1]] {
				t.Errorf("%s cites %q, but DESIGN.md has no section %s", name, m[0], m[1])
			}
		}
	}
}
