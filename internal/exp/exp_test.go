package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func runExp(t *testing.T, id string) *Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	tab, err := e.Run(Config{})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatalf("%s render: %v", id, err)
	}
	if !strings.Contains(buf.String(), tab.ID) {
		t.Fatalf("%s render missing id", id)
	}
	return tab
}

// TestRenderPadsByRunes: a multi-byte cell ("—" is three bytes, one rune)
// is padded like any one-character cell, so the next column stays aligned.
func TestRenderPadsByRunes(t *testing.T) {
	tab := &Table{ID: "T", Artifact: "a", Title: "t", Columns: []string{"x", "next"}}
	tab.AddRow("—", "b")
	tab.AddRow("ab", "c")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	want := "T — a\nt\nx   next\n----------\n—   b   \nab  c   \n\n"
	if buf.String() != want {
		t.Fatalf("rendered %q, want %q", buf.String(), want)
	}
}

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tab.ID, row, col)
	}
	return tab.Rows[row][col]
}

func TestE1NoViolations(t *testing.T) {
	tab := runExp(t, "E1")
	for i, row := range tab.Rows {
		if row[len(row)-1] != "0" {
			t.Errorf("E1 row %d reports violations: %v", i, row)
		}
	}
}

func TestE2FullAgreement(t *testing.T) {
	tab := runExp(t, "E2")
	for i, row := range tab.Rows {
		if row[len(row)-1] != "0" {
			t.Errorf("E2 row %d reports disagreements: %v", i, row)
		}
	}
}

func TestE3GlobalMinTGrows(t *testing.T) {
	tab := runExp(t, "E3")
	prev := -1
	for i, row := range tab.Rows {
		if row[2] != "2" {
			t.Errorf("E3 row %d: per-object t_o = %s, want 2", i, row[2])
		}
		g, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatal(err)
		}
		if g <= prev {
			t.Errorf("E3 global MinT not growing: %v", tab.Rows)
		}
		prev = g
	}
}

func TestE4SlotEscapes(t *testing.T) {
	tab := runExp(t, "E4")
	prev := int64(-1)
	for i, row := range tab.Rows {
		if row[1] != "true" {
			t.Errorf("E4 row %d: prefix not 2-linearizable", i)
		}
		if row[2] != "false" {
			t.Errorf("E4 row %d: prefix unexpectedly 1-linearizable", i)
		}
		slot, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if slot <= prev {
			t.Errorf("E4 forced slot not escaping: %v", tab.Rows)
		}
		prev = slot
	}
}

func TestE5WrapperRestoresWeakConsistency(t *testing.T) {
	tab := runExp(t, "E5")
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	junk := byName["junk-counter"]
	if junk == nil || junk[2] == "40/40" {
		t.Errorf("junk counter should violate weak consistency somewhere: %v", junk)
	}
	wrapped := byName["junk-counter-announced"]
	if wrapped == nil || wrapped[2] != "40/40" {
		t.Errorf("wrapped junk counter must be weakly consistent on all runs: %v", wrapped)
	}
	cas := byName["cas-counter"]
	if cas == nil || cas[3] != "40/40" {
		t.Errorf("cas counter must be linearizable on all runs: %v", cas)
	}
}

func TestE6TheoremTwelveShape(t *testing.T) {
	tab := runExp(t, "E6")
	for _, row := range tab.Rows {
		switch row[0] {
		case "register":
			if row[2] != "true" || row[3] != "false" {
				t.Errorf("register local-copy: wc=%s lin=%s, want true/false", row[2], row[3])
			}
		case "constant":
			if row[2] != "true" || row[3] != "true" {
				t.Errorf("constant local-copy: wc=%s lin=%s, want true/true", row[2], row[3])
			}
		}
	}
}

func TestE7DecisionsAgree(t *testing.T) {
	tab := runExp(t, "E7")
	for i, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E7 row %d: Proposition 14 verdicts disagree: %v", i, row)
		}
	}
}

func TestE8ValencyShape(t *testing.T) {
	tab := runExp(t, "E8")
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	regs := byName["P16 on atomic registers"]
	if regs == nil || regs[1] == "0" {
		t.Errorf("register protocol should violate agreement: %v", regs)
	}
	strong := byName["passthrough on consensus base"]
	if strong == nil || strong[1] != "0" {
		t.Errorf("strong-base protocol should not violate agreement: %v", strong)
	}
	if strong != nil && (strong[3] != "true" || !strings.Contains(strong[4], "consensus")) {
		t.Errorf("strong pivot expected: %v", strong)
	}
}

func TestE10Shape(t *testing.T) {
	tab := runExp(t, "E10")
	for _, row := range tab.Rows {
		switch row[0] {
		case "el-testset":
			if row[2] != "false" {
				t.Errorf("el-testset should not be linearizable across seeds: %v", row)
			}
			if row[3] != "true" {
				t.Errorf("el-testset must be weakly consistent: %v", row)
			}
		case "cas-testset":
			if row[2] != "true" || row[4] != "0" {
				t.Errorf("cas-testset must be linearizable with MinT 0: %v", row)
			}
		}
	}
}

func TestE11ParadoxShape(t *testing.T) {
	tab := runExp(t, "E11")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	warm := tab.Rows[0]
	if warm[1] != "true" || warm[5] != "true" {
		t.Errorf("warmup transform failed: %v", warm)
	}
	sloppy := tab.Rows[1]
	if sloppy[1] != "false" {
		t.Errorf("sloppy transform should fail to find a stable configuration: %v", sloppy)
	}
}

func TestE12DivergenceShape(t *testing.T) {
	tab := runExp(t, "E12")
	prev := -1
	for i, row := range tab.Rows {
		mt, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatal(err)
		}
		if mt <= prev {
			t.Errorf("E12 row %d: sloppy MinT not growing: %v", i, tab.Rows)
		}
		prev = mt
		if row[4] != "0" {
			t.Errorf("E12 row %d: cas MinT = %s, want 0", i, row[4])
		}
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[3] != "diverging" {
		t.Errorf("E12 final trend = %s, want diverging", last[3])
	}
}

func TestE13ContentionShape(t *testing.T) {
	tab := runExp(t, "E13")
	// CAS steps/op must grow with contention; sloppy steps/op equals n+1.
	var casPrev float64
	for i, row := range tab.Rows {
		cas, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if cas < casPrev {
			t.Errorf("E13 row %d: cas steps/op decreased under contention: %v", i, tab.Rows)
		}
		casPrev = cas
	}
}

func TestE9AndE14Run(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiments")
	}
	tab := runExp(t, "E9")
	meanMinT := map[string][]float64{} // per process count, in window order
	for _, row := range tab.Rows {
		if row[2] != "true" || row[3] != "true" {
			t.Errorf("E9 run not wait-free/weakly consistent: %v", row)
		}
		m, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		meanMinT[row[0]] = append(meanMinT[row[0]], m)
	}
	// Proposition 16's MinT tracks the adversary's window (0, 2, 6).
	for procs, ms := range meanMinT {
		for i := 1; i < len(ms); i++ {
			if ms[i] < ms[i-1] {
				t.Errorf("E9 procs=%s: mean MinT fell as the window grew: %v", procs, ms)
			}
		}
		if len(ms) != 3 || ms[2] <= ms[0] {
			t.Errorf("E9 procs=%s: mean MinT at window 6 not above window 0: %v", procs, ms)
		}
	}
	// E14 fails unless the fast path and the generic engine agree where
	// both answer (8, 16 and 32 operations).
	runExp(t, "E14")
}

func TestE15ProgressShape(t *testing.T) {
	tab := runExp(t, "E15")
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	cas := byName["cas-counter"]
	if cas == nil || cas[1] != "true" || cas[2] != "true" {
		t.Errorf("cas counter should be obstruction-free with starvation found: %v", cas)
	}
	sloppy := byName["sloppy-counter"]
	if sloppy == nil || sloppy[2] != "false" {
		t.Errorf("sloppy counter should not starve: %v", sloppy)
	}
	ts := byName["el-testset"]
	if ts == nil || ts[4] != "1" {
		t.Errorf("el-testset should take one step per op: %v", ts)
	}
}

func TestE16HierarchyShape(t *testing.T) {
	tab := runExp(t, "E16")
	wantEL := map[string]string{
		"el-testset":          "true",
		"consensus-localcopy": "false",
		"fetchinc-localcopy":  "false",
		"el-consensus":        "true",
		"sloppy-counter":      "false",
		"warmup-counter":      "true",
	}
	for _, row := range tab.Rows {
		want, ok := wantEL[row[1]]
		if !ok {
			t.Errorf("unexpected row %v", row)
			continue
		}
		if row[5] != want {
			t.Errorf("%s EL verdict = %s, want %s", row[1], row[5], want)
		}
	}
	if len(tab.Rows) != len(wantEL) {
		t.Errorf("rows = %d, want %d", len(tab.Rows), len(wantEL))
	}
}

func TestAllUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a ghost")
	}
	if _, ok := ByID("e3"); !ok {
		t.Error("ByID should be case-insensitive")
	}
}

func TestE17StressShape(t *testing.T) {
	tab := runExp(t, "E17")
	if len(tab.Rows) != 4 {
		t.Fatalf("E17 rows = %d, want 4", len(tab.Rows))
	}
	// Correct objects: clean, stabilized trend. Every row, the caught one
	// included (up to its cut), replays byte for byte.
	for i := 0; i < 4; i++ {
		if i < 3 && (cell(t, tab, i, 4) != "clean" || cell(t, tab, i, 5) != "stabilized") {
			t.Errorf("E17 row %d not clean/stabilized: %v", i, tab.Rows[i])
		}
		if cell(t, tab, i, 6) != "identical" {
			t.Errorf("E17 row %d replay: %v", i, tab.Rows[i])
		}
	}
	// The injected-bug counter: caught, shrunk small, sim-confirmed.
	junk := tab.Rows[3]
	if cell(t, tab, 3, 4) != "caught" {
		t.Fatalf("E17 junk row not caught: %v", junk)
	}
	if n, err := strconv.Atoi(cell(t, tab, 3, 7)); err != nil || n < 1 || n > 2 {
		t.Errorf("E17 junk shrunk-ops = %q, want 1 or 2", cell(t, tab, 3, 7))
	}
	if cell(t, tab, 3, 8) != "true" {
		t.Errorf("E17 junk not sim-diverged: %v", junk)
	}
}

func TestE18RecoveryShape(t *testing.T) {
	tab := runExp(t, "E18")
	if len(tab.Rows) != 4 {
		t.Fatalf("E18 rows = %d, want 4", len(tab.Rows))
	}
	// Every row stitches to ok with a stabilized trend — the serial driver
	// makes each cell deterministic, so the counts are exact.
	for i := range tab.Rows {
		if cell(t, tab, i, 7) != "stabilized" || cell(t, tab, i, 8) != "ok" {
			t.Errorf("E18 row %d not stabilized/ok: %v", i, tab.Rows[i])
		}
	}
	// Crash rows recover exactly the injected cut; recovered commits keep
	// their tickets (resumed-seq == recovered).
	for i := 0; i < 3; i++ {
		if cell(t, tab, i, 3) != "false" || cell(t, tab, i, 2) != cell(t, tab, i, 4) {
			t.Errorf("E18 crash row %d: %v", i, tab.Rows[i])
		}
	}
	if cell(t, tab, 0, 2) != "120" || cell(t, tab, 2, 2) != "300" {
		t.Errorf("E18 recovered commits drifted: %v / %v", tab.Rows[0], tab.Rows[2])
	}
	// The torn row loses exactly the one commit the truncated frame held.
	if cell(t, tab, 3, 3) != "true" || cell(t, tab, 3, 2) != "299" {
		t.Errorf("E18 torn row: %v", tab.Rows[3])
	}
}

// E19 is the comparison-harness experiment: its golden claims are the
// exact per-cell trend classes and winners — the acceptance bar is at
// least one cell where the two families' trend classes differ, and here
// every cell does.
func TestE19SlogComparisonGolden(t *testing.T) {
	tab := runExp(t, "E19")
	want := [][]string{
		{"slog/localcopy", "4", "slog-register", "stabilized", "0", "localcopy-register", "diverging", "14", "a", "trend"},
		{"slog/localcopy", "8", "slog-register", "stabilized", "0", "localcopy-register", "diverging", "30", "a", "trend"},
		{"strong/fast", "4", "slog-batch:1", "stabilized", "0", "slog-counter", "diverging", "15", "a", "trend"},
		{"strong/fast", "8", "slog-batch:1", "stabilized", "0", "slog-counter", "diverging", "28", "a", "trend"},
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("E19 rows = %d, want %d: %v", len(tab.Rows), len(want), tab.Rows)
	}
	for i, w := range want {
		for j, cellWant := range w {
			if got := cell(t, tab, i, j); got != cellWant {
				t.Errorf("E19 row %d col %d (%s) = %q, want %q", i, j, tab.Columns[j], got, cellWant)
			}
		}
	}
}

// E19 must be deterministic for any worker count: two independent runs
// (one parallel) produce identical tables.
func TestE19Deterministic(t *testing.T) {
	e, _ := ByID("E19")
	a, err := e.Run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	render := func(tab *Table) string {
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render(a) != render(b) {
		t.Fatalf("E19 not deterministic:\n%s\nvs\n%s", render(a), render(b))
	}
}

func TestE20MonitorGapShape(t *testing.T) {
	tab := runExp(t, "E20")
	if len(tab.Rows) != 6 || len(tab.Columns) != 7 {
		t.Fatalf("E20 is %d rows x %d columns, want 2 workloads x 3 monitors, 7 columns", len(tab.Rows), len(tab.Columns))
	}
	for i := range tab.Rows {
		junk := i >= 3
		mon, verdict := cell(t, tab, i, 1), cell(t, tab, i, 4)
		if mon == "none" {
			if verdict != "recorded" {
				t.Errorf("E20 row %d: %v", i, tab.Rows[i])
			}
		} else {
			want := "clean"
			if junk {
				want = "caught"
			}
			if verdict != want {
				t.Errorf("E20 row %d verdict = %q, want %q: %v", i, verdict, want, tab.Rows[i])
			}
		}
	}
}
