package compare

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/campaign"
	"github.com/elin-go/elin/internal/scenario"
)

func TestSplitImpl(t *testing.T) {
	id := "engine=sim impl=slog-batch:1 workload=default policy=immediate sched=rr chooser=true procs=2 ops=8 tol=-1 seed=1"
	impl, key, err := splitImpl(id)
	if err != nil {
		t.Fatal(err)
	}
	if impl != "slog-batch:1" {
		t.Fatalf("impl = %q", impl)
	}
	want := "engine=sim impl=* workload=default policy=immediate sched=rr chooser=true procs=2 ops=8 tol=-1 seed=1"
	if key != want {
		t.Fatalf("key = %q, want %q", key, want)
	}
	if _, _, err := splitImpl("engine=sim procs=2"); err == nil {
		t.Fatal("identity without impl accepted")
	}
}

func TestStabilizedAt(t *testing.T) {
	cases := []struct {
		trend *scenario.TrendInfo
		want  int
	}{
		{nil, -1},
		{&scenario.TrendInfo{FinalMinT: 0}, -1},
		// Settles at the start of the trailing FinalMinT run, not the end.
		{&scenario.TrendInfo{FinalMinT: 0, Samples: []scenario.TrendSample{
			{Events: 4, MinT: 2}, {Events: 8, MinT: 0}, {Events: 12, MinT: 0},
		}}, 8},
		// An earlier visit to the final value does not count: MinT left it.
		{&scenario.TrendInfo{FinalMinT: 0, Samples: []scenario.TrendSample{
			{Events: 4, MinT: 0}, {Events: 8, MinT: 3}, {Events: 12, MinT: 0},
		}}, 12},
		// Never settled below the final value: stabilization is the first sample.
		{&scenario.TrendInfo{FinalMinT: 5, Samples: []scenario.TrendSample{
			{Events: 4, MinT: 5}, {Events: 8, MinT: 5},
		}}, 4},
	}
	for i, c := range cases {
		if got := stabilizedAt(c.trend); got != c.want {
			t.Errorf("case %d: stabilizedAt = %d, want %d", i, got, c.want)
		}
	}
}

func TestDecideLadder(t *testing.T) {
	m := func(verdict, trend string, minT, stab int) Metrics {
		return Metrics{Verdict: verdict, Trend: trend, FinalMinT: minT, StabilizedAt: stab}
	}
	cases := []struct {
		name   string
		a, b   Metrics
		winner string
		reason string
	}{
		{"verdict beats trend", m("ok", "diverging", 9, 9), m("violation", "stabilized", 0, 0), WinnerA, ReasonVerdict},
		{"error loses to violation", m("error", "", 0, -1), m("violation", "diverging", 4, 4), WinnerB, ReasonVerdict},
		{"trend class", m("ok", "stabilized", 0, 8), m("ok", "diverging", 6, 8), WinnerA, ReasonTrend},
		{"inconclusive between", m("ok", "inconclusive", 1, 4), m("ok", "diverging", 1, 4), WinnerA, ReasonTrend},
		{"missing trend ranks as inconclusive", m("ok", "", 0, -1), m("ok", "stabilized", 0, 4), WinnerB, ReasonTrend},
		{"final MinT", m("ok", "diverging", 6, 8), m("ok", "diverging", 3, 8), WinnerB, ReasonFinalMinT},
		{"stabilization point", m("ok", "stabilized", 0, 16), m("ok", "stabilized", 0, 8), WinnerB, ReasonStabilization},
		{"no samples never wins stabilization", m("ok", "stabilized", 0, -1), m("ok", "stabilized", 0, 99), WinnerB, ReasonStabilization},
		{"deterministic tie", m("ok", "stabilized", 0, 8), m("ok", "stabilized", 0, 8), WinnerTie, ReasonTie},
		{"both trendless tie", m("ok", "", 0, -1), m("ok", "", 0, -1), WinnerTie, ReasonTie},
	}
	for _, c := range cases {
		winner, reason := decide(c.a, c.b)
		if winner != c.winner || reason != c.reason {
			t.Errorf("%s: decide = (%s, %s), want (%s, %s)", c.name, winner, reason, c.winner, c.reason)
		}
	}
	// Throughput must never decide: identical deterministic fields with
	// wildly different throughputs still tie.
	a := m("ok", "stabilized", 0, 8)
	b := a
	a.ThroughputOpsS, b.ThroughputOpsS = 1e6, 1
	if winner, _ := decide(a, b); winner != WinnerTie {
		t.Fatalf("throughput decided a winner: %s", winner)
	}
}

// e19Spec is a small two-family grid (one slog cell, one local-copy cell
// per coordinate) the package tests sweep for the end-to-end path.
func e19Spec() *campaign.Spec {
	return &campaign.Spec{
		Schema: campaign.SpecSchema,
		Name:   "compare-test",
		Axes: campaign.Axes{
			Engine:    []string{"sim"},
			Impl:      []string{"slog-register", "localcopy-register"},
			Ops:       []int{4, 8},
			Tolerance: []int{-1},
			Seed:      []int64{1},
		},
	}
}

func TestSplitEndToEnd(t *testing.T) {
	camp, err := campaign.Run(e19Spec(), campaign.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Split(camp, []string{"slog-register"}, []string{"localcopy-register"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Cells != 2 || len(rep.UnmatchedA)+len(rep.UnmatchedB) != 0 {
		t.Fatalf("totals = %+v, unmatched a=%v b=%v", rep.Totals, rep.UnmatchedA, rep.UnmatchedB)
	}
	// The paper's head-to-head: the stabilizing log settles, the local
	// copy diverges — every cell goes to side a on trend class.
	if rep.Totals.AWins != 2 {
		t.Fatalf("slog-register won %d of 2 cells: %+v", rep.Totals.AWins, rep.Cells)
	}
	for _, c := range rep.Cells {
		if !strings.Contains(c.Key, "impl=*") {
			t.Fatalf("key %q not impl-wildcarded", c.Key)
		}
		if c.A.Trend != "stabilized" || c.B.Trend != "diverging" {
			t.Fatalf("cell %s trends a=%q b=%q", c.Key, c.A.Trend, c.B.Trend)
		}
		if c.Reason != ReasonTrend {
			t.Fatalf("cell %s decided by %q, want trend", c.Key, c.Reason)
		}
	}
	if rows := rep.Rollups["ops"]; len(rows) != 2 {
		t.Fatalf("ops rollup = %+v", rows)
	}
	if _, ok := rep.Rollups["impl"]; ok {
		t.Fatal("impl leaked into the rollup axes")
	}
}

// The canonical encoding of a deterministic comparison is byte-stable
// across independent sweeps — the acceptance bar for committed reports.
func TestCanonicalByteStable(t *testing.T) {
	encode := func() []byte {
		camp, err := campaign.Run(e19Spec(), campaign.RunOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Split(camp, []string{"slog-register"}, []string{"localcopy-register"})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Canonical().EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical comparison not byte-stable:\n%s\nvs\n%s", a, b)
	}
}

// TestAxisCountJSON pins a rollup row's encoding: the embedded Totals
// keeps the field order value, cells, a_wins, b_wins, ties.
func TestAxisCountJSON(t *testing.T) {
	b, err := json.Marshal(AxisCount{Value: "v", Totals: Totals{Cells: 4, AWins: 1, BWins: 2, Ties: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"value":"v","cells":4,"a_wins":1,"b_wins":2,"ties":1}`; string(b) != want {
		t.Fatalf("AxisCount encodes as %s, want %s", b, want)
	}
}

func TestSplitErrors(t *testing.T) {
	camp, err := campaign.Run(e19Spec(), campaign.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Split(camp, nil, []string{"localcopy-register"}); err == nil {
		t.Fatal("empty side accepted")
	}
	if _, err := Split(camp, []string{"slog-register"}, []string{"slog-register"}); err == nil {
		t.Fatal("impl on both sides accepted")
	}
	if _, err := Split(camp, []string{"slog-register"}, []string{"slog-batch:99"}); err == nil {
		t.Fatal("impl matching no cell accepted")
	}
}

func TestCampaignsModeAndUnmatched(t *testing.T) {
	cell := func(id, verdict string) campaign.Cell {
		return campaign.Cell{ID: id, Verdict: verdict}
	}
	a := &campaign.Campaign{Name: "slog", Cells: []campaign.Cell{
		cell("engine=sim impl=slog-counter workload=default policy=immediate procs=2 ops=4 tol=0 seed=1", "ok"),
		cell("engine=sim impl=slog-counter workload=default policy=immediate procs=2 ops=8 tol=0 seed=1", "ok"),
	}}
	b := &campaign.Campaign{Name: "localcopy", Cells: []campaign.Cell{
		cell("engine=sim impl=localcopy-register workload=default policy=immediate procs=2 ops=4 tol=0 seed=1", "violation"),
		cell("engine=sim impl=localcopy-register workload=default policy=immediate procs=3 ops=4 tol=0 seed=1", "violation"),
	}}
	rep, err := Campaigns(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NameA != "slog" || rep.NameB != "localcopy" {
		t.Fatalf("names %q vs %q", rep.NameA, rep.NameB)
	}
	if rep.Totals.Cells != 1 || rep.Totals.AWins != 1 {
		t.Fatalf("totals = %+v", rep.Totals)
	}
	if len(rep.UnmatchedA) != 1 || len(rep.UnmatchedB) != 1 {
		t.Fatalf("unmatched a=%v b=%v", rep.UnmatchedA, rep.UnmatchedB)
	}
	if rep.Cells[0].Reason != ReasonVerdict {
		t.Fatalf("reason = %q", rep.Cells[0].Reason)
	}

	// Two same-side cells collapsing onto one family-blind key is
	// ambiguous, not a silent overwrite.
	dup := &campaign.Campaign{Name: "dup", Cells: []campaign.Cell{
		cell("engine=sim impl=slog-counter workload=default policy=immediate procs=2 ops=4 tol=0 seed=1", "ok"),
		cell("engine=sim impl=slog-batch:2 workload=default policy=immediate procs=2 ops=4 tol=0 seed=1", "ok"),
	}}
	if _, err := Campaigns(dup, b); err == nil {
		t.Fatal("ambiguous side accepted")
	}
}

func TestRenderMentionsEverySide(t *testing.T) {
	camp, err := campaign.Run(e19Spec(), campaign.RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Split(camp, []string{"slog-register"}, []string{"localcopy-register"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"slog-register", "localcopy-register", "winner=a (trend)", "rollup ops:", "a-wins=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
}
