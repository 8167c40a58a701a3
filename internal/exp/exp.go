// Package exp implements the experiment suite of EXPERIMENTS.md: one
// experiment per paper artifact (lemma, proposition, theorem,
// counterexample, algorithm), each regenerating a table that records what
// the paper claims and what this reproduction measures. The experiments
// are deterministic (fixed seeds) and shared by cmd/elin (elin bench) and the root
// benchmark suite.
package exp

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"github.com/elin-go/elin/internal/explore"
)

// Config tunes an experiment run. There is no package-global state: every
// experiment receives its configuration explicitly, so concurrent runs with
// different settings cannot interfere.
type Config struct {
	// Workers is the exploration worker count the experiments hand to
	// package explore: 0 (the default) uses GOMAXPROCS — the results are
	// deterministic for every worker count, so parallelism is safe to
	// leave on — and 1 forces the sequential reference engine for
	// apples-to-apples timings.
	Workers int
}

// explore is the exploration configuration the experiments share.
func (c Config) explore() explore.Config { return explore.Config{Workers: c.Workers} }

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Artifact names the paper artifact reproduced, e.g. "Lemma 5".
	Artifact string
	// Title is a one-line description.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows are the data rows.
	Rows [][]string
	// Notes explain how to read the table and what "passing" means.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text. Columns are padded by rune
// count, so a multi-byte cell such as "—" keeps its column aligned.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n%s\n", t.ID, t.Artifact, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && utf8.RuneCountInString(cell) > widths[i] {
				widths[i] = utf8.RuneCountInString(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// Experiment pairs an identifier with its runner.
type Experiment struct {
	// ID is the experiment identifier.
	ID string
	// Run executes the experiment with the given configuration.
	Run func(Config) (*Table, error)
}

// All returns the full suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1MonotonePrefix},
		{"E2", E2Locality},
		{"E3", E3InfiniteObjects},
		{"E4", E4NotSafety},
		{"E5", E5Announce},
		{"E6", E6LocalCopy},
		{"E7", E7Trivial},
		{"E8", E8Valency},
		{"E9", E9ELConsensus},
		{"E10", E10TestSet},
		{"E11", E11Stabilize},
		{"E12", E12Divergence},
		{"E13", E13Throughput},
		{"E14", E14Checker},
		{"E15", E15Progress},
		{"E16", E16Hierarchy},
		{"E17", E17Stress},
		{"E18", E18Recovery},
		{"E19", E19SlogVersusLocalCopy},
		{"E20", E20MonitorGap},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
