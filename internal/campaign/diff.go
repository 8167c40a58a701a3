package campaign

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/elin-go/elin/internal/scenario"
)

// Cell diff classes.
const (
	// ClassSame: the cell exists in both campaigns with the same verdict.
	ClassSame = "same"
	// ClassFlip: the cell exists in both campaigns with different
	// verdicts — the regression the gate exists to catch.
	ClassFlip = "flip"
	// ClassNew: the cell exists only in the current campaign (the grid
	// grew).
	ClassNew = "new"
	// ClassMissing: the cell exists only in the baseline (the grid
	// shrank).
	ClassMissing = "missing"
)

// CellDiff is one classified cell.
type CellDiff struct {
	ID    string `json:"id"`
	Class string `json:"class"`
	// Old/New are the baseline and current verdicts (flips; one side for
	// new/missing cells).
	Old string `json:"old,omitempty"`
	New string `json:"new,omitempty"`
	// Detail is the current cell's verdict detail.
	Detail string `json:"detail,omitempty"`
	// Repro is the single-cell CLI rerun command.
	Repro string `json:"repro,omitempty"`
}

// Diff is the classification of every cell of a current campaign against
// a baseline campaign.
type Diff struct {
	// Baseline names the baseline campaign.
	Baseline string `json:"baseline"`
	// Same counts identically-verdicted cells.
	Same int `json:"same"`
	// Flips/New/Missing list the non-same cells, sorted by identity.
	Flips   []CellDiff `json:"flips,omitempty"`
	New     []CellDiff `json:"new,omitempty"`
	Missing []CellDiff `json:"missing,omitempty"`
}

// Compare classifies every cell of current against baseline. Identity is
// the cell ID; verdict changes are flips, grid growth is new, grid
// shrinkage is missing. Timings are not compared: per-cell wall clocks are
// single samples, and performance is gated by the repo benchmark (bash
// bench/run.sh), which measures spread.
func Compare(baseline, current *Campaign) *Diff {
	d := &Diff{Baseline: baseline.Name}
	base := make(map[string]*Cell, len(baseline.Cells))
	for i := range baseline.Cells {
		base[baseline.Cells[i].ID] = &baseline.Cells[i]
	}
	seen := make(map[string]bool, len(current.Cells))
	for i := range current.Cells {
		cur := &current.Cells[i]
		seen[cur.ID] = true
		old, ok := base[cur.ID]
		if !ok {
			d.New = append(d.New, CellDiff{
				ID: cur.ID, Class: ClassNew, New: cur.Verdict, Detail: cur.Detail, Repro: cur.repro(current.Spec),
			})
			continue
		}
		if old.Verdict != cur.Verdict {
			detail := cur.Detail
			if cur.Verdict == VerdictError {
				detail = cur.Error
			}
			d.Flips = append(d.Flips, CellDiff{
				ID: cur.ID, Class: ClassFlip, Old: old.Verdict, New: cur.Verdict,
				Detail: detail, Repro: cur.repro(current.Spec),
			})
			continue
		}
		d.Same++
	}
	for id, old := range base {
		if !seen[id] {
			d.Missing = append(d.Missing, CellDiff{ID: id, Class: ClassMissing, Old: old.Verdict})
		}
	}
	for _, list := range [][]CellDiff{d.Flips, d.New, d.Missing} {
		sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	}
	return d
}

// Gate returns a non-nil error when the diff must fail CI: any verdict
// flip. The error names the first offending cells and their rerun commands,
// so the failure is actionable from the log alone.
func (d *Diff) Gate() error {
	if len(d.Flips) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "campaign gate failed vs baseline %q: %d verdict flip(s)", d.Baseline, len(d.Flips))
	for _, f := range clip(d.Flips, 5) {
		fmt.Fprintf(&b, "\n  flip %s: %s -> %s", f.ID, f.Old, f.New)
		if f.Detail != "" {
			fmt.Fprintf(&b, " (%s)", f.Detail)
		}
		if f.Repro != "" {
			fmt.Fprintf(&b, "\n    rerun: %s", f.Repro)
		}
	}
	if len(d.Flips) > 5 {
		fmt.Fprintf(&b, "\n  ... (full classification in the campaign report's diff section)")
	}
	return fmt.Errorf("%s", b.String())
}

// Render writes the human-readable diff summary.
func (d *Diff) Render(w io.Writer) error {
	fmt.Fprintf(w, "baseline %s: same=%d flips=%d new=%d missing=%d\n",
		d.Baseline, d.Same, len(d.Flips), len(d.New), len(d.Missing))
	for _, f := range d.Flips {
		fmt.Fprintf(w, "  flip %s: %s -> %s\n", f.ID, f.Old, f.New)
	}
	for _, n := range d.New {
		fmt.Fprintf(w, "  new %s: %s\n", n.ID, n.New)
	}
	for _, m := range d.Missing {
		fmt.Fprintf(w, "  missing %s: was %s\n", m.ID, m.Old)
	}
	return nil
}

func clip(list []CellDiff, n int) []CellDiff {
	if len(list) > n {
		return list[:n]
	}
	return list
}

// repro builds the cell's single-run CLI command from its report's
// resolved scenario echo — or, for error cells that never produced a
// report, from the grid coordinate and spec: every coordinate under its
// flag (options only when set), then the engine's own knobs, so rerunning
// it reproduces the cell exactly.
func (c *Cell) repro(sp *Spec) string {
	var engine string
	var inf scenario.ScenarioInfo
	switch {
	case c.Report != nil:
		engine, inf = c.Report.Engine, c.Report.Scenario
		if c.point.Impl != "" {
			// The echo names the resolved object, which for parameterized
			// impls can normalize away the grid's spelling (a default-batch
			// "slog-batch" echoes without its :K); the rerun must use the
			// coordinate the sweep actually selected.
			inf.Impl = c.point.Impl
		}
	case sp != nil && c.point != (Point{}):
		engine = c.point.Engine
		inf = sp.Scenario(c.point).Info(engine)
	default:
		// A baseline-loaded cell: the coordinate never made it off disk.
		return ""
	}
	sub := engine
	switch sub {
	case "live":
		sub = "stress"
	case "serve":
		// A serve cell reruns as a self-contained load run: `elin load
		// -self` stands the server up in-process exactly like the engine.
		sub = "load -self"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "elin %s", sub)
	for _, co := range scenario.Coords[1:] { // the engine is the subcommand
		if v := co.Get(&inf); v != "" || co.Kind != scenario.CoordOption {
			fmt.Fprintf(&b, " %s %s", co.Flag(), shellArg(v))
		}
	}
	if inf.WALSync != "" {
		// The cell wrote a run-scoped temp log; the rerun gets its own.
		fmt.Fprint(&b, " -wal /tmp/elin-rerun.wal")
	}
	switch engine {
	case "explore":
		fmt.Fprintf(&b, " -mode %s -depth %d", inf.Analysis, inf.Depth)
		if inf.VerifyDepth > 0 {
			fmt.Fprintf(&b, " -verify-depth %d", inf.VerifyDepth)
		}
	case "sim":
		fmt.Fprintf(&b, " -sched %s -chooser %s", shellArg(inf.Scheduler), shellArg(inf.Chooser))
		if inf.MaxSteps > 0 {
			fmt.Fprintf(&b, " -max-steps %d", inf.MaxSteps)
		}
	}
	if inf.Serial {
		fmt.Fprint(&b, " -serial")
	}
	if inf.Stride > 0 {
		fmt.Fprintf(&b, " -stride %d", inf.Stride)
	}
	return b.String()
}

// shellArg single-quotes an operand the shell would otherwise interpret
// ("uniform:write(3)"), so the printed rerun command pastes cleanly.
func shellArg(s string) string {
	plain := strings.IndexFunc(s, func(r rune) bool {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return false
		case r == ':' || r == '-' || r == '_' || r == '.' || r == ',':
			return false
		}
		return true
	}) < 0
	if plain && s != "" {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}
