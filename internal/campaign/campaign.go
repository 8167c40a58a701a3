package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/elin-go/elin/internal/scenario"
)

// Schema is the Campaign JSON schema identifier. Bump it on any
// backwards-incompatible change to the encoding; the golden test pins the
// current shape.
const Schema = "elin/campaign/v1"

// VerdictError marks a cell whose scenario failed to resolve or execute —
// distinct from a violation verdict, and a gate failure in its own right.
const VerdictError = "error"

// Cell is one executed grid point: identity, verdict, the cell's unified
// Report, and its timing record (the same encoder as elin bench -json, so
// perf sections cannot drift between the two).
type Cell struct {
	// ID is the cell's canonical identity (scenario.CellID): what baseline
	// diffing matches on across runs and commits.
	ID string `json:"id"`
	// Verdict is the cell outcome: "ok", "violation", or "error".
	Verdict string `json:"verdict"`
	// Detail is the one-line summary of the verdict.
	Detail string `json:"detail,omitempty"`
	// Error carries the resolution/execution error of an error cell.
	Error string `json:"error,omitempty"`
	// Timing is the cell's wall-clock record; nil in canonical reports.
	Timing *scenario.Timing `json:"timing,omitempty"`
	// Report is the cell's unified engine report (schema elin/report/v1);
	// nil for error cells.
	Report *scenario.Report `json:"report,omitempty"`

	// point is the resolved grid coordinate; unexported (the ID is the
	// serialized identity), used for rollups and repro commands.
	point Point
}

// Totals counts cell outcomes.
type Totals struct {
	Cells     int `json:"cells"`
	OK        int `json:"ok"`
	Violation int `json:"violation"`
	Error     int `json:"error"`
}

// count adds one cell of the given verdict.
func (t *Totals) count(verdict string) {
	t.Cells++
	switch verdict {
	case scenario.VerdictOK:
		t.OK++
	case scenario.VerdictViolation:
		t.Violation++
	default:
		t.Error++
	}
}

// AxisCount is one rollup row: the outcome counts of every cell sharing
// one value on one axis.
type AxisCount struct {
	Value string `json:"value"`
	Totals
}

// TimingSummary aggregates the per-cell wall clocks. Canonical drops it
// entirely: every field is run-dependent.
type TimingSummary struct {
	// WallNS is the sweep's wall-clock time; TotalNS sums the cells (their
	// ratio is the realized parallelism).
	WallNS  int64 `json:"wall_ns"`
	TotalNS int64 `json:"total_ns"`
	// P50NS/P95NS/MaxNS are per-cell wall-clock percentiles.
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	MaxNS int64 `json:"max_ns"`
	// Workers is the pool size the sweep ran with.
	Workers int `json:"workers"`
}

// Campaign is the aggregated outcome of one sweep: the spec echo, every
// cell in identity order, rollups by axis, and timing percentiles. Its
// JSON encoding is stable (schema-tagged and golden-tested).
type Campaign struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
	Spec   *Spec  `json:"spec"`
	Totals Totals `json:"totals"`
	// Rollups maps each axis name to its per-value outcome counts, values
	// sorted; axes the grid does not vary still appear with their single
	// value, so a rollup row exists for every coordinate of every cell.
	Rollups map[string][]AxisCount `json:"rollups"`
	Timing  *TimingSummary         `json:"timing,omitempty"`
	Cells   []Cell                 `json:"cells"`
	// Diff is the baseline comparison, when one ran. Canonical drops it: a
	// baseline file describes one campaign, not a comparison.
	Diff *Diff `json:"diff,omitempty"`
}

// Canonical returns a deep copy with every run-dependent part removed:
// the timing summary, the per-cell timing records, the diff section, and
// each cell report reduced to its canonical form (scenario.Report
// Canonical zeroes wall-clock perf fields). A deterministic sweep's
// canonical encoding is byte-identical across runs and machines — the
// form baselines are committed in.
func (c *Campaign) Canonical() *Campaign {
	cp := *c
	cp.Timing = nil
	cp.Diff = nil
	cp.Cells = make([]Cell, len(c.Cells))
	for i, cell := range c.Cells {
		cc := cell
		cc.Timing = nil
		if cell.Report != nil {
			cc.Report = cell.Report.Canonical()
		}
		cp.Cells[i] = cc
	}
	cp.Rollups = make(map[string][]AxisCount, len(c.Rollups))
	for axis, rows := range c.Rollups {
		cp.Rollups[axis] = append([]AxisCount(nil), rows...)
	}
	return &cp
}

// EncodeJSON writes the campaign's stable JSON encoding (indented,
// trailing newline). Map keys encode sorted, so the output is
// deterministic.
func (c *Campaign) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Load reads a campaign report file (full or canonical — a baseline).
func Load(path string) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: read report: %w", err)
	}
	var c Campaign
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("campaign: parse report %s: %w", path, err)
	}
	if c.Schema != Schema {
		return nil, fmt.Errorf("campaign: report %s has schema %q, want %q (is this a sweep spec instead of a campaign report?)",
			path, c.Schema, Schema)
	}
	return &c, nil
}

// AxisNames lists the sweepable axes of a spec, in expansion order — the
// vocabulary `elin list` prints.
func AxisNames() []string {
	names := make([]string, len(scenario.Coords))
	for i, c := range scenario.Coords {
		names[i] = c.Axis
	}
	return names
}

// aggregate fills totals and rollups from the cells' points and verdicts.
// A rollup value is the coordinate's canonical name, so an option at its
// default rolls up under that name ("none", "full").
func (c *Campaign) aggregate() {
	c.Totals = Totals{}
	rollups := map[string]map[string]*AxisCount{}
	for _, co := range scenario.Coords {
		rollups[co.Axis] = map[string]*AxisCount{}
	}
	for i := range c.Cells {
		cell := &c.Cells[i]
		c.Totals.count(cell.Verdict)
		for _, co := range scenario.Coords {
			value := co.Get(&cell.point)
			if value == "" {
				value = co.Default
			}
			row := rollups[co.Axis][value]
			if row == nil {
				row = &AxisCount{Value: value}
				rollups[co.Axis][value] = row
			}
			row.count(cell.Verdict)
		}
	}
	c.Rollups = make(map[string][]AxisCount, len(rollups))
	for axis, byValue := range rollups {
		rows := make([]AxisCount, 0, len(byValue))
		for _, row := range byValue {
			rows = append(rows, *row)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Value < rows[j].Value })
		c.Rollups[axis] = rows
	}
}

// timingSummary computes the percentile summary from the per-cell
// timings.
func timingSummary(cells []Cell, wall time.Duration, workers int) *TimingSummary {
	ns := make([]int64, 0, len(cells))
	var total int64
	for _, c := range cells {
		if c.Timing == nil {
			continue
		}
		ns = append(ns, c.Timing.NS)
		total += c.Timing.NS
	}
	if len(ns) == 0 {
		return nil
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	pct := func(p float64) int64 {
		i := int(p * float64(len(ns)-1))
		return ns[i]
	}
	return &TimingSummary{
		WallNS:  wall.Nanoseconds(),
		TotalNS: total,
		P50NS:   pct(0.50),
		P95NS:   pct(0.95),
		MaxNS:   ns[len(ns)-1],
		Workers: workers,
	}
}

// RenderSummary writes the human-readable campaign summary: the stable
// totals line, the engine rollup, every error cell's reason and rerun
// command (the sweep exits non-zero on them, so the log must say why),
// and the timing percentiles.
func (c *Campaign) RenderSummary(w io.Writer) error {
	fmt.Fprintf(w, "campaign %s: cells=%d ok=%d violation=%d error=%d\n",
		c.Name, c.Totals.Cells, c.Totals.OK, c.Totals.Violation, c.Totals.Error)
	for _, row := range c.Rollups["engine"] {
		fmt.Fprintf(w, "  %-8s cells=%d ok=%d violation=%d error=%d\n",
			row.Value, row.Cells, row.OK, row.Violation, row.Error)
	}
	for i := range c.Cells {
		cell := &c.Cells[i]
		if cell.Verdict != VerdictError {
			continue
		}
		fmt.Fprintf(w, "error %s: %s\n", cell.ID, cell.Error)
		if repro := cell.repro(c.Spec); repro != "" {
			fmt.Fprintf(w, "  rerun: %s\n", repro)
		}
	}
	if t := c.Timing; t != nil {
		fmt.Fprintf(w, "timing: wall=%v cells-total=%v p50=%v p95=%v max=%v workers=%d\n",
			time.Duration(t.WallNS).Round(time.Millisecond),
			time.Duration(t.TotalNS).Round(time.Millisecond),
			time.Duration(t.P50NS).Round(time.Microsecond),
			time.Duration(t.P95NS).Round(time.Microsecond),
			time.Duration(t.MaxNS).Round(time.Microsecond),
			t.Workers)
	}
	return nil
}
