package campaign

import (
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/scenario"
)

// mkCampaign builds a campaign from (id, verdict, ns) triples; ns 0 means
// no timing record (the canonical-baseline shape).
func mkCampaign(name string, cells ...Cell) *Campaign {
	c := &Campaign{Schema: Schema, Name: name, Cells: cells}
	return c
}

func cell(id, verdict string, ns int64) Cell {
	c := Cell{ID: id, Verdict: verdict}
	if ns > 0 {
		c.Timing = &scenario.Timing{ID: id, NS: ns}
	}
	return c
}

func TestCompareClasses(t *testing.T) {
	base := mkCampaign("base",
		cell("a", "ok", 0),
		cell("b", "ok", 0),
		cell("c", "violation", 0),
		cell("gone", "ok", 0),
	)
	cur := mkCampaign("cur",
		cell("a", "ok", 0),
		cell("b", "violation", 0), // flip
		cell("c", "violation", 0),
		cell("fresh", "ok", 0), // new
	)
	d := Compare(base, cur)
	if d.Same != 2 {
		t.Errorf("same = %d, want 2", d.Same)
	}
	if len(d.Flips) != 1 || d.Flips[0].ID != "b" || d.Flips[0].Old != "ok" || d.Flips[0].New != "violation" {
		t.Errorf("flips: %+v", d.Flips)
	}
	if len(d.New) != 1 || d.New[0].ID != "fresh" || d.New[0].Class != ClassNew {
		t.Errorf("new: %+v", d.New)
	}
	if len(d.Missing) != 1 || d.Missing[0].ID != "gone" || d.Missing[0].Old != "ok" {
		t.Errorf("missing: %+v", d.Missing)
	}
	// New and missing cells do not fail the gate; flips do.
	err := d.Gate()
	if err == nil {
		t.Fatal("flip passed the gate")
	}
	for _, want := range []string{"1 verdict flip", `baseline "base"`, "flip b: ok -> violation"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error %q misses %q", err, want)
		}
	}
	// Grid growth/shrinkage alone passes.
	grown := Compare(mkCampaign("base", cell("a", "ok", 0)),
		mkCampaign("cur", cell("a", "ok", 0), cell("fresh", "ok", 0)))
	if err := grown.Gate(); err != nil {
		t.Errorf("grid growth failed the gate: %v", err)
	}
}

// TestGateJunkFlipEndToEnd injects a verdict flip through the real
// pipeline: a junk-fi cell that behaves at baseline time (its bug
// threshold is never reached) and misbehaves in the current sweep. The
// gate must fail with the cell identity and a rerun command.
func TestGateJunkFlipEndToEnd(t *testing.T) {
	grid := func(impl string) *Spec {
		return &Spec{
			Schema: SpecSchema,
			Name:   "junk",
			Axes: Axes{
				Engine: []string{"live"},
				Impl:   []string{impl},
				Procs:  []int{2},
				Ops:    []int{300},
				Seed:   []int64{1},
			},
			Stride: 64,
		}
	}
	healthy, err := Run(grid("junk-fi:100000"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Totals.OK != 1 {
		t.Fatalf("baseline junk cell not ok: %+v", healthy.Totals)
	}
	broken, err := Run(grid("junk-fi:40"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if broken.Totals.Violation != 1 {
		t.Fatalf("sick junk cell not caught: %+v", broken.Totals)
	}
	// The two grids differ in the impl coordinate, so align the identity
	// the way a behaviour change in one commit would: same cell, new
	// verdict.
	baseline := healthy.Canonical()
	baseline.Cells[0].ID = broken.Cells[0].ID
	d := Compare(baseline, broken)
	err = d.Gate()
	if err == nil {
		t.Fatal("junk flip passed the gate")
	}
	// The rerun command carries the spec-level stride too: without it the
	// monitor windows — and therefore the violation — need not reproduce.
	for _, want := range []string{"verdict flip", "junk-fi:40", "ok -> violation",
		"rerun: elin stress -impl junk-fi:40", "-stride 64"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error %q misses %q", err, want)
		}
	}
}

// TestReproShapes pins the rerun commands: shell quoting of operands the
// shell would eat, and error cells (no report) rebuilt from their grid
// coordinate.
func TestReproShapes(t *testing.T) {
	sp := &Spec{
		Schema: SpecSchema,
		Name:   "r",
		Axes: Axes{
			Engine:   []string{"sim"},
			Impl:     []string{"el-register"},
			Workload: []string{"uniform:write(3)"},
			Procs:    []int{2},
			Ops:      []int{1},
		},
	}
	camp, err := Run(sp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	repro := camp.Cells[0].repro(sp)
	if !strings.Contains(repro, "-workload 'uniform:write(3)'") {
		t.Errorf("paren workload not shell-quoted: %q", repro)
	}

	// An error cell never produced a report; the rerun command comes from
	// the coordinate + spec instead.
	errCell := Cell{
		ID:      "x",
		Verdict: VerdictError,
		point:   Point{Engine: "sim", Impl: "nosuch", Workload: "default", Policy: "immediate", Procs: 2, Ops: 1, Seed: 3},
	}
	repro = errCell.repro(sp)
	for _, want := range []string{"elin sim", "-impl nosuch", "-seed 3", "-sched rr -chooser true"} {
		if !strings.Contains(repro, want) {
			t.Errorf("error-cell repro %q misses %q", repro, want)
		}
	}
	// Baseline-loaded cells (no report, no coordinate) yield none.
	if got := (&Cell{ID: "y", Verdict: "ok"}).repro(sp); got != "" {
		t.Errorf("baseline cell repro = %q", got)
	}

	// A parameterized impl keeps its :K in the rerun command even when the
	// report's scenario echo normalized the spelling away: the grid
	// coordinate, not the echo, names what the sweep selected.
	normalized := Cell{
		ID:      "z",
		Verdict: "ok",
		Report: &scenario.Report{
			Engine: "sim",
			Scenario: scenario.ScenarioInfo{Impl: "slog-batch", Workload: "default",
				Policy: "immediate", Procs: 2, Ops: 4, Seed: 1},
		},
		point: Point{Engine: "sim", Impl: "slog-batch:7", Workload: "default",
			Policy: "immediate", Procs: 2, Ops: 4, Seed: 1},
	}
	if repro := normalized.repro(sp); !strings.Contains(repro, "-impl slog-batch:7") {
		t.Errorf("parameterized repro dropped :K: %q", repro)
	}
}

func TestDiffRender(t *testing.T) {
	base := mkCampaign("base", cell("a", "ok", 0), cell("gone", "ok", 0))
	cur := mkCampaign("cur", cell("a", "violation", 0), cell("fresh", "ok", 0))
	d := Compare(base, cur)
	var b strings.Builder
	if err := d.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"same=0 flips=1 new=1 missing=1", "flip a: ok -> violation", "new fresh: ok", "missing gone: was ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("render misses %q:\n%s", want, out)
		}
	}
}
