// Package compare builds head-to-head reports between two implementation
// families over matched campaign cells. The paper's argument is
// comparative — an eventually linearizable construction is only "cheap"
// or "expensive" relative to a competitor on the same workload — so the
// unit of comparison is the pair of cells that agree on every grid
// coordinate except the implementation. Compare matches cells by that
// family-blind identity (the cell ID with the impl coordinate wildcarded
// to impl=*), extracts each side's deterministic outcome (verdict, t-lin
// trend class, final MinT, stabilization point) plus its measured
// throughput, and decides a per-cell winner from the deterministic fields
// alone: throughput is reported, never adjudicated, so canonical reports
// stay byte-identical across machines.
package compare

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"github.com/elin-go/elin/internal/campaign"
	"github.com/elin-go/elin/internal/scenario"
)

// Schema is the comparison-report JSON schema identifier. Bump it on any
// backwards-incompatible change to the encoding; the golden test pins the
// current shape.
const Schema = "elin/compare/v1"

// Winner values.
const (
	// WinnerA / WinnerB: the named side won the cell.
	WinnerA = "a"
	WinnerB = "b"
	// WinnerTie: the deterministic fields cannot separate the sides.
	WinnerTie = "tie"
)

// Reason values — which rung of the decision ladder settled a cell.
const (
	// ReasonVerdict: one side passed its check and the other did not.
	ReasonVerdict = "verdict"
	// ReasonTrend: the t-lin trend classes differ (stabilized beats
	// inconclusive beats diverging).
	ReasonTrend = "trend"
	// ReasonFinalMinT: same trend class, different final MinT.
	ReasonFinalMinT = "final-min-t"
	// ReasonStabilization: same final MinT, one side reached it earlier.
	ReasonStabilization = "stabilization"
	// ReasonTie: nothing deterministic separates the sides.
	ReasonTie = "tie"
)

// Metrics is one side's extract of a matched cell: the deterministic
// outcome fields the winner rule reads, plus the measured throughput
// (informational only; Canonical zeroes it).
type Metrics struct {
	// Impl is the side's implementation coordinate as it appears in the
	// cell identity ("slog-batch:1").
	Impl string `json:"impl"`
	// Verdict is the cell verdict: "ok", "violation", or "error".
	Verdict string `json:"verdict"`
	// Detail is the cell's one-line verdict summary (the error text for
	// error cells).
	Detail string `json:"detail,omitempty"`
	// Trend is the t-lin trend class ("stabilized", "inconclusive",
	// "diverging"); empty when the engine produced no trend section.
	Trend string `json:"trend,omitempty"`
	// FinalMinT is the trend's final MinT measurement.
	FinalMinT int `json:"final_min_t"`
	// StabilizedAt is the stabilization point: the event count at which
	// MinT last reached its final value (the start of the trailing run of
	// samples measuring FinalMinT) — lower means the history settled
	// earlier. -1 when the cell has no trend samples.
	StabilizedAt int `json:"stabilized_at"`
	// ThroughputOpsS is the side's measured throughput (live cells; 0
	// elsewhere). Reported for the trade-off reading, never consulted by
	// the winner rule, zeroed by Canonical.
	ThroughputOpsS float64 `json:"throughput_ops_s,omitempty"`
}

// Cell is one matched pair: the family-blind identity both sides share,
// each side's metrics, and the decided winner.
type Cell struct {
	// Key is the shared identity: the cell ID with the implementation
	// coordinate wildcarded to impl=*.
	Key string  `json:"key"`
	A   Metrics `json:"a"`
	B   Metrics `json:"b"`
	// Winner is "a", "b" or "tie"; Reason names the decision-ladder rung
	// that settled it.
	Winner string `json:"winner"`
	Reason string `json:"reason"`
}

// Totals counts cell outcomes.
type Totals struct {
	Cells int `json:"cells"`
	AWins int `json:"a_wins"`
	BWins int `json:"b_wins"`
	Ties  int `json:"ties"`
}

// count adds one cell of the given winner.
func (t *Totals) count(winner string) {
	t.Cells++
	switch winner {
	case WinnerA:
		t.AWins++
	case WinnerB:
		t.BWins++
	default:
		t.Ties++
	}
}

// AxisCount is one rollup row: the win counts of every matched cell
// sharing one value on one axis.
type AxisCount struct {
	Value string `json:"value"`
	Totals
}

// Report is a head-to-head comparison: every matched cell in key order,
// win totals, and per-axis winner rollups. Its JSON encoding is stable
// (schema-tagged and golden-tested).
type Report struct {
	Schema string `json:"schema"`
	// NameA/NameB label the sides (campaign names, or the impl lists of a
	// single-grid split).
	NameA  string `json:"name_a"`
	NameB  string `json:"name_b"`
	Totals Totals `json:"totals"`
	// Rollups maps each varied coordinate of the shared keys (engine,
	// workload, procs, ops, ... — everything except impl) to its per-value
	// win counts, values sorted.
	Rollups map[string][]AxisCount `json:"rollups"`
	Cells   []Cell                 `json:"cells"`
	// UnmatchedA/UnmatchedB list cell IDs present on one side only, sorted
	// — grid asymmetry the totals do not count.
	UnmatchedA []string `json:"unmatched_a,omitempty"`
	UnmatchedB []string `json:"unmatched_b,omitempty"`
}

// splitImpl splits a cell identity into its implementation coordinate and
// the family-blind key both sides of a comparison share.
func splitImpl(id string) (impl, key string, err error) {
	const marker = " impl="
	i := strings.Index(id, marker)
	if i < 0 {
		return "", "", fmt.Errorf("compare: cell %q has no impl coordinate", id)
	}
	start := i + len(marker)
	rest := strings.IndexByte(id[start:], ' ')
	if rest < 0 {
		return "", "", fmt.Errorf("compare: cell %q ends at its impl coordinate", id)
	}
	return id[start : start+rest], id[:start] + "*" + id[start+rest:], nil
}

// stabilizedAt finds the stabilization point of a trend: the event count
// of the earliest sample in the trailing run measuring FinalMinT, or -1
// when the trend carries no samples.
func stabilizedAt(t *scenario.TrendInfo) int {
	if t == nil || len(t.Samples) == 0 {
		return -1
	}
	at := t.Samples[len(t.Samples)-1].Events
	for i := len(t.Samples) - 1; i >= 0 && t.Samples[i].MinT == t.FinalMinT; i-- {
		at = t.Samples[i].Events
	}
	return at
}

// metrics extracts one side's comparison fields from a campaign cell.
func metrics(c *campaign.Cell, impl string) Metrics {
	m := Metrics{Impl: impl, Verdict: c.Verdict, Detail: c.Detail, StabilizedAt: -1}
	if c.Verdict == campaign.VerdictError {
		m.Detail = c.Error
	}
	if r := c.Report; r != nil {
		if t := r.Trend; t != nil {
			m.Trend = t.Trend
			m.FinalMinT = t.FinalMinT
			m.StabilizedAt = stabilizedAt(t)
		}
		if p := r.Perf; p != nil {
			m.ThroughputOpsS = p.ThroughputOpsS
		}
	}
	return m
}

// verdictRank orders verdicts best-first: a passing cell beats a
// violating one beats one that failed to run at all.
func verdictRank(v string) int {
	switch v {
	case scenario.VerdictOK:
		return 0
	case scenario.VerdictViolation:
		return 1
	default:
		return 2
	}
}

// trendRank orders trend classes best-first. A missing trend section
// ranks with inconclusive: the cell measured nothing either way.
func trendRank(t string) int {
	switch t {
	case "stabilized":
		return 0
	case "diverging":
		return 2
	default:
		return 1
	}
}

// decide applies the winner ladder to one matched pair. Every rung reads
// a deterministic field — verdict, then trend class, then final MinT,
// then stabilization point — so the decision is a pure function of the
// canonical reports; throughput never enters.
func decide(a, b Metrics) (winner, reason string) {
	pick := func(less bool) string {
		if less {
			return WinnerA
		}
		return WinnerB
	}
	if ra, rb := verdictRank(a.Verdict), verdictRank(b.Verdict); ra != rb {
		return pick(ra < rb), ReasonVerdict
	}
	if ra, rb := trendRank(a.Trend), trendRank(b.Trend); ra != rb {
		return pick(ra < rb), ReasonTrend
	}
	if a.Trend == "" && b.Trend == "" {
		return WinnerTie, ReasonTie
	}
	if a.FinalMinT != b.FinalMinT {
		return pick(a.FinalMinT < b.FinalMinT), ReasonFinalMinT
	}
	// A side with no samples (-1) cannot claim early stabilization.
	sa, sb := stabOrder(a.StabilizedAt), stabOrder(b.StabilizedAt)
	if sa != sb {
		return pick(sa < sb), ReasonStabilization
	}
	return WinnerTie, ReasonTie
}

// stabOrder maps the no-samples marker (-1) past every real
// stabilization point.
func stabOrder(at int) int {
	if at < 0 {
		return math.MaxInt
	}
	return at
}

// side is one comparison input: a label and its cells.
type side struct {
	name  string
	cells []*campaign.Cell
}

// Campaigns compares two campaign runs cell-by-cell: every cell of a is
// matched to the b cell sharing its family-blind identity. The campaigns
// are typically the same grid swept with different impl axes. A campaign
// in which two cells collapse onto one family-blind key (an impl axis
// with more than one value per side) is ambiguous and errors; use Split
// on the single grid instead.
func Campaigns(a, b *campaign.Campaign) (*Report, error) {
	return build(
		side{name: a.Name, cells: cellPtrs(a.Cells)},
		side{name: b.Name, cells: cellPtrs(b.Cells)},
	)
}

// Split partitions one campaign's cells into two families by their impl
// coordinate and compares the halves — the one-grid form `elin sweep`
// feeds through an impl axis listing both families. Cells whose impl is
// on neither list are ignored (the grid may sweep more than the two
// families under comparison); a listed impl that matches no cell is an
// error (a typo would otherwise read as a flawless sweep).
func Split(c *campaign.Campaign, implsA, implsB []string) (*Report, error) {
	if len(implsA) == 0 || len(implsB) == 0 {
		return nil, fmt.Errorf("compare: both sides need at least one impl")
	}
	member := map[string]string{}
	for _, impl := range implsA {
		member[impl] = WinnerA
	}
	for _, impl := range implsB {
		if member[impl] == WinnerA {
			return nil, fmt.Errorf("compare: impl %q listed on both sides", impl)
		}
		member[impl] = WinnerB
	}
	hits := map[string]int{}
	var a, b side
	a.name, b.name = strings.Join(implsA, "+"), strings.Join(implsB, "+")
	for i := range c.Cells {
		cell := &c.Cells[i]
		impl, _, err := splitImpl(cell.ID)
		if err != nil {
			return nil, err
		}
		switch member[impl] {
		case WinnerA:
			a.cells = append(a.cells, cell)
		case WinnerB:
			b.cells = append(b.cells, cell)
		default:
			continue
		}
		hits[impl]++
	}
	for impl := range member {
		if hits[impl] == 0 {
			return nil, fmt.Errorf("compare: impl %q matches no cell of campaign %q (typo in a family list?)", impl, c.Name)
		}
	}
	return build(a, b)
}

func cellPtrs(cells []campaign.Cell) []*campaign.Cell {
	out := make([]*campaign.Cell, len(cells))
	for i := range cells {
		out[i] = &cells[i]
	}
	return out
}

// build matches the two sides by family-blind key and assembles the
// report.
func build(a, b side) (*Report, error) {
	index := func(s side) (map[string]*campaign.Cell, map[string]string, error) {
		byKey := make(map[string]*campaign.Cell, len(s.cells))
		impls := make(map[string]string, len(s.cells))
		for _, cell := range s.cells {
			impl, key, err := splitImpl(cell.ID)
			if err != nil {
				return nil, nil, err
			}
			if prev, dup := byKey[key]; dup {
				return nil, nil, fmt.Errorf("compare: side %q has two cells with identity %q (%s and %s) — one impl per side per grid point",
					s.name, key, prev.ID, cell.ID)
			}
			byKey[key] = cell
			impls[key] = impl
		}
		return byKey, impls, nil
	}
	aByKey, aImpls, err := index(a)
	if err != nil {
		return nil, err
	}
	bByKey, bImpls, err := index(b)
	if err != nil {
		return nil, err
	}

	rep := &Report{Schema: Schema, NameA: a.name, NameB: b.name, Rollups: map[string][]AxisCount{}}
	for key, ca := range aByKey {
		cb, ok := bByKey[key]
		if !ok {
			rep.UnmatchedA = append(rep.UnmatchedA, ca.ID)
			continue
		}
		cell := Cell{Key: key, A: metrics(ca, aImpls[key]), B: metrics(cb, bImpls[key])}
		cell.Winner, cell.Reason = decide(cell.A, cell.B)
		rep.Cells = append(rep.Cells, cell)
	}
	for key, cb := range bByKey {
		if _, ok := aByKey[key]; !ok {
			rep.UnmatchedB = append(rep.UnmatchedB, cb.ID)
		}
	}
	sort.Slice(rep.Cells, func(i, j int) bool { return rep.Cells[i].Key < rep.Cells[j].Key })
	sort.Strings(rep.UnmatchedA)
	sort.Strings(rep.UnmatchedB)
	rep.aggregate()
	return rep, nil
}

// aggregate fills the totals and the per-axis winner rollups from the
// matched cells' shared keys.
func (r *Report) aggregate() {
	rollups := map[string]map[string]*AxisCount{}
	for i := range r.Cells {
		cell := &r.Cells[i]
		r.Totals.count(cell.Winner)
		for axis, value := range keyCoordinates(cell.Key) {
			byValue := rollups[axis]
			if byValue == nil {
				byValue = map[string]*AxisCount{}
				rollups[axis] = byValue
			}
			row := byValue[value]
			if row == nil {
				row = &AxisCount{Value: value}
				byValue[value] = row
			}
			row.count(cell.Winner)
		}
	}
	for axis, byValue := range rollups {
		rows := make([]AxisCount, 0, len(byValue))
		for _, row := range byValue {
			rows = append(rows, *row)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Value < rows[j].Value })
		r.Rollups[axis] = rows
	}
}

// keyCoordinates parses the k=v coordinates of a family-blind key,
// dropping the wildcarded impl token.
func keyCoordinates(key string) map[string]string {
	coords := map[string]string{}
	for _, tok := range strings.Fields(key) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "impl" {
			continue
		}
		coords[k] = v
	}
	return coords
}

// Canonical returns a deep copy with every run-dependent field removed —
// the per-side throughputs, the only wall-clock numbers a comparison
// carries. A comparison of deterministic campaigns canonicalizes to
// byte-identical JSON across runs and machines.
func (r *Report) Canonical() *Report {
	cp := *r
	cp.Cells = make([]Cell, len(r.Cells))
	for i, cell := range r.Cells {
		cell.A.ThroughputOpsS = 0
		cell.B.ThroughputOpsS = 0
		cp.Cells[i] = cell
	}
	cp.Rollups = make(map[string][]AxisCount, len(r.Rollups))
	for axis, rows := range r.Rollups {
		cp.Rollups[axis] = append([]AxisCount(nil), rows...)
	}
	cp.UnmatchedA = append([]string(nil), r.UnmatchedA...)
	cp.UnmatchedB = append([]string(nil), r.UnmatchedB...)
	return &cp
}

// EncodeJSON writes the report's stable JSON encoding (indented, trailing
// newline). Map keys encode sorted, so the output is deterministic.
func (r *Report) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render writes the human-readable comparison: the totals line, one line
// per matched cell (trend, final MinT, stabilization point and — when
// measured — throughput for each side), the non-trivial axis rollups,
// and any unmatched cells.
func (r *Report) Render(w io.Writer) error {
	fmt.Fprintf(w, "compare %s (a) vs %s (b): cells=%d a-wins=%d b-wins=%d ties=%d\n",
		r.NameA, r.NameB, r.Totals.Cells, r.Totals.AWins, r.Totals.BWins, r.Totals.Ties)
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(w, "  %s\n    a %-22s %s | b %-22s %s | winner=%s (%s)\n",
			c.Key, c.A.Impl, sideSummary(c.A), c.B.Impl, sideSummary(c.B), c.Winner, c.Reason)
	}
	axes := make([]string, 0, len(r.Rollups))
	for axis, rows := range r.Rollups {
		if len(rows) > 1 {
			axes = append(axes, axis)
		}
	}
	sort.Strings(axes)
	for _, axis := range axes {
		fmt.Fprintf(w, "rollup %s:\n", axis)
		for _, row := range r.Rollups[axis] {
			fmt.Fprintf(w, "  %-12s cells=%d a-wins=%d b-wins=%d ties=%d\n",
				row.Value, row.Cells, row.AWins, row.BWins, row.Ties)
		}
	}
	for _, id := range r.UnmatchedA {
		fmt.Fprintf(w, "unmatched a: %s\n", id)
	}
	for _, id := range r.UnmatchedB {
		fmt.Fprintf(w, "unmatched b: %s\n", id)
	}
	return nil
}

// sideSummary formats one side's metrics for the per-cell render line.
func sideSummary(m Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", m.Verdict)
	if m.Trend != "" {
		fmt.Fprintf(&b, "/%s minT=%d", m.Trend, m.FinalMinT)
		if m.StabilizedAt >= 0 {
			fmt.Fprintf(&b, " stab@%d", m.StabilizedAt)
		}
	}
	if m.ThroughputOpsS > 0 {
		fmt.Fprintf(&b, " %.0f op/s", m.ThroughputOpsS)
	}
	return b.String()
}
