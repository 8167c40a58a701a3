package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/scenario"
)

func validSpec() *Spec {
	return &Spec{
		Schema: SpecSchema,
		Name:   "t",
		Axes: Axes{
			Engine: []string{"explore", "sim"},
			Impl:   []string{"cas-counter", "sloppy-counter"},
			Procs:  []int{2},
			Ops:    []int{1, 2},
			Seed:   []int64{1},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad schema", func(s *Spec) { s.Schema = "elin/sweep/v9" }, "schema"},
		{"missing name", func(s *Spec) { s.Name = "" }, "name"},
		{"unknown engine", func(s *Spec) { s.Axes.Engine = []string{"nosuch"} }, "explore"},
		{"unknown workload", func(s *Spec) { s.Axes.Workload = []string{"nosuch"} }, "uniform"},
		{"unknown policy", func(s *Spec) { s.Axes.Policy = []string{"nosuch"} }, "immediate"},
		{"unknown scheduler", func(s *Spec) { s.Scheduler = "nosuch" }, "rr"},
		{"unknown chooser", func(s *Spec) { s.Chooser = "nosuch" }, "stale"},
		{"unknown analysis", func(s *Spec) { s.Analysis = "nosuch" }, "valency"},
		{"zero procs", func(s *Spec) { s.Axes.Procs = []int{0} }, "procs"},
		{"zero ops", func(s *Spec) { s.Axes.Ops = []int{2, 0} }, "ops"},
		{"empty exclude", func(s *Spec) { s.Exclude = []Match{{}} }, "every cell"},
		{"dup string axis", func(s *Spec) { s.Axes.Impl = []string{"cas-counter", "cas-counter"} }, "repeats"},
		{"dup int axis", func(s *Spec) { s.Axes.Ops = []int{1, 1} }, "repeats"},
		{"dup seed axis", func(s *Spec) { s.Axes.Seed = []int64{3, 3} }, "repeats"},
		// "" resolves to the axis default, so spelling both is a repeat:
		// they would expand into byte-identical cell identities.
		{"dup resolved impl", func(s *Spec) { s.Axes.Impl = []string{"", "cas-counter"} }, "repeats"},
		{"dup resolved engine", func(s *Spec) { s.Axes.Engine = []string{"", "sim"} }, "repeats"},
		{"dup resolved workload", func(s *Spec) { s.Axes.Workload = []string{"default", ""} }, "repeats"},
		{"dup resolved policy", func(s *Spec) { s.Axes.Policy = []string{"immediate", ""} }, "repeats"},
	}
	for _, tc := range cases {
		sp := validSpec()
		tc.mut(sp)
		err := sp.Validate()
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestExpandDefaultsAndOrder(t *testing.T) {
	// An all-empty grid is the single default cell on the default engine.
	sp := &Spec{Schema: SpecSchema, Name: "d"}
	points, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("default expansion: %d cells", len(points))
	}
	want := Point{Engine: "sim", Impl: "cas-counter", Workload: "default", Policy: "immediate", Procs: 2, Ops: 2}
	if points[0] != want {
		t.Errorf("default point = %+v, want %+v", points[0], want)
	}

	// Axis order is deterministic: engine outermost, seed innermost.
	sp = validSpec()
	points, err = sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("expansion: %d cells, want 8", len(points))
	}
	if points[0].Engine != "explore" || points[0].Impl != "cas-counter" || points[0].Ops != 1 {
		t.Errorf("first point: %+v", points[0])
	}
	if points[1].Ops != 2 {
		t.Errorf("ops is not the faster-varying axis: %+v", points[1])
	}
	if points[4].Engine != "sim" {
		t.Errorf("engine is not the slowest-varying axis: %+v", points[4])
	}
}

func TestExpandExcludes(t *testing.T) {
	two := 2
	sp := validSpec()
	sp.Exclude = []Match{
		{Engine: "sim", Impl: "sloppy-counter"},
		{Procs: &two, Ops: &two, Engine: "explore"},
	}
	points, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 8 cells minus 2 (sim x sloppy x 2 ops) minus 2 (explore x ops=2 x 2 impls).
	if len(points) != 4 {
		t.Fatalf("got %d cells: %+v", len(points), points)
	}
	for _, p := range points {
		if p.Engine == "sim" && p.Impl == "sloppy-counter" {
			t.Errorf("excluded cell survived: %+v", p)
		}
		if p.Engine == "explore" && p.Ops == 2 {
			t.Errorf("excluded cell survived: %+v", p)
		}
	}

	// Excluding everything is a spec error.
	sp.Exclude = []Match{{Impl: "cas-counter"}, {Impl: "sloppy-counter"}}
	if _, err := sp.Expand(); err == nil || !strings.Contains(err.Error(), "zero cells") {
		t.Errorf("all-excluded expansion: %v", err)
	}

	// A predicate that matches nothing is a typo ("sloppy" for
	// "sloppy-counter") and must fail loudly: its cells would silently run.
	sp = validSpec()
	sp.Exclude = []Match{{Engine: "sim", Impl: "sloppy"}}
	if _, err := sp.Expand(); err == nil || !strings.Contains(err.Error(), "matches no cell") {
		t.Errorf("dead exclude accepted: %v", err)
	}
	// Overlapping predicates both count as live when both fire.
	sp = validSpec()
	sp.Exclude = []Match{{Impl: "sloppy-counter"}, {Engine: "sim", Impl: "sloppy-counter"}}
	if _, err := sp.Expand(); err != nil {
		t.Errorf("overlapping excludes rejected: %v", err)
	}
}

func TestSpecScenario(t *testing.T) {
	sp := validSpec()
	sp.Scheduler = "random"
	sp.Chooser = "stale"
	sp.Analysis = scenario.AnalysisValency
	sp.Stride = 64
	sp.Budget = &scenario.Budget{Depth: 9, MaxSteps: 100}
	p := Point{Engine: "sim", Impl: "warmup-counter:2", Workload: "uniform:inc", Policy: "window:2",
		Procs: 3, Ops: 4, Tolerance: -1, Seed: 7}
	s := sp.Scenario(p)
	if s.Impl != p.Impl || s.Workload != p.Workload || s.Policy != p.Policy ||
		s.Procs != 3 || s.Ops != 4 || s.Tolerance != -1 || s.Seed != 7 {
		t.Errorf("coordinates not applied: %+v", s)
	}
	if s.Scheduler != "random" || s.Chooser != "stale" || s.Analysis != scenario.AnalysisValency ||
		s.Stride != 64 || s.Budget.Depth != 9 || s.Budget.MaxSteps != 100 {
		t.Errorf("spec knobs not applied: %+v", s)
	}
	if s.Workers != 1 {
		t.Errorf("cell workers = %d, want the sequential default 1", s.Workers)
	}
	sp.Workers = 3
	if s := sp.Scenario(p); s.Workers != 3 {
		t.Errorf("explicit cell workers not applied: %d", s.Workers)
	}
}

func TestLoadSpec(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.json", `{"schema": "elin/sweep/v1", "name": "g", "axes": {"engine": ["sim"]}}`)
	sp, err := LoadSpec(good)
	if err != nil {
		t.Fatalf("good spec: %v", err)
	}
	if sp.Name != "g" {
		t.Errorf("loaded spec: %+v", sp)
	}
	// Unknown fields fail loudly: a typoed axis name must not silently
	// sweep the wrong grid.
	typo := write("typo.json", `{"schema": "elin/sweep/v1", "name": "t", "axes": {"engines": ["sim"]}}`)
	if _, err := LoadSpec(typo); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("typoed spec: %v", err)
	}
	if _, err := LoadSpec(filepath.Join(dir, "nosuch.json")); err == nil {
		t.Error("missing file accepted")
	}
	// Trailing content (a bad merge concatenating two specs) fails loudly
	// instead of silently loading the first half.
	merged := write("merged.json",
		`{"schema": "elin/sweep/v1", "name": "a", "axes": {"engine": ["sim"]}}
{"schema": "elin/sweep/v1", "name": "b", "axes": {"engine": ["live"]}}`)
	if _, err := LoadSpec(merged); err == nil || !strings.Contains(err.Error(), "trailing content") {
		t.Errorf("concatenated spec: %v", err)
	}
	// So does a stray closing brace, which a "more elements?" probe misses.
	brace := write("brace.json", `{"schema": "elin/sweep/v1", "name": "a"} }`)
	if _, err := LoadSpec(brace); err == nil || !strings.Contains(err.Error(), "trailing content") {
		t.Errorf("spec with a stray brace: %v", err)
	}
	bad := write("bad.json", `{"schema": "elin/sweep/v1"}`)
	if _, err := LoadSpec(bad); err == nil || !strings.Contains(err.Error(), "name") {
		t.Errorf("invalid spec: %v", err)
	}
}

func TestCellIDMatchesScenario(t *testing.T) {
	// The cell identity is scenario.CellID of the built scenario — one
	// vocabulary between grids, reports and baselines.
	sp := validSpec()
	points, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		id := sp.Scenario(p).CellID(p.Engine)
		for _, frag := range []string{"engine=" + p.Engine, "impl=" + p.Impl, "workload=default", "policy=immediate"} {
			if !strings.Contains(id, frag) {
				t.Errorf("cell id %q misses %q", id, frag)
			}
		}
	}
}

// TestFaultsAxis pins the faults sweep dimension: validation, expansion
// with "none" mapping to the zero coordinate, canonicalized matching in
// exclusion predicates, and the scenario handoff.
func TestFaultsAxis(t *testing.T) {
	sp := &Spec{
		Schema: SpecSchema,
		Name:   "f",
		Axes: Axes{
			Engine: []string{"live"},
			Impl:   []string{"atomic-fi"},
			Faults: []string{"none", "jitter-light", "stall:0@4+2"},
		},
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("faulted spec rejected: %v", err)
	}
	points, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("expansion: %d cells, want 3", len(points))
	}
	// "none" is the zero coordinate; presets canonicalize to grammar.
	if points[0].Faults != "" || points[1].Faults != "jitter:3" || points[2].Faults != "stall:0@4+2" {
		t.Errorf("faults coordinates = %q, %q, %q", points[0].Faults, points[1].Faults, points[2].Faults)
	}
	if s := sp.Scenario(points[1]); s.Faults != "jitter:3" {
		t.Errorf("scenario faults = %q", s.Faults)
	}
	if s := sp.Scenario(points[0]); s.Faults != "" {
		t.Errorf("unfaulted scenario faults = %q (must stay zero for baseline compatibility)", s.Faults)
	}

	// Predicates match canonicalized: excluding the preset by its preset
	// name drops the canonical cell; "none" matches the unfaulted cell.
	sp.Exclude = []Match{{Faults: "jitter-light"}}
	points, err = sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("preset exclude left %d cells", len(points))
	}
	sp.Exclude = []Match{{Faults: "none"}}
	points, err = sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Faults == "" {
			t.Errorf("faults=none exclude left the unfaulted cell: %+v", p)
		}
	}

	// Repeated values — even across spellings — are rejected.
	sp.Exclude = nil
	sp.Axes.Faults = []string{"jitter-light", "jitter:3"}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Errorf("duplicate faults axis accepted: %v", err)
	}
	// Unknown values are rejected with the vocabulary.
	sp.Axes.Faults = []string{"explode:9"}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Errorf("unknown faults axis value accepted: %v", err)
	}
}

// TestCoordTableBindsSpecTypes pins the link between the coordinate table
// and the spec's data format: every row names a field of Axes, Match and
// Point, and the JSON name of the Axes and Match fields is the row's axis
// name — the one spelling a spec author types.
func TestCoordTableBindsSpecTypes(t *testing.T) {
	for _, c := range scenario.Coords {
		for _, typ := range []reflect.Type{reflect.TypeOf(Axes{}), reflect.TypeOf(Match{})} {
			f, ok := typ.FieldByName(c.Field)
			if !ok {
				t.Fatalf("%s has no field %s for axis %s", typ.Name(), c.Field, c.Axis)
			}
			if tag := f.Tag.Get("json"); tag != c.Axis+",omitempty" {
				t.Errorf("%s.%s is tagged %q, want the axis name %q", typ.Name(), c.Field, tag, c.Axis)
			}
		}
		var p Point
		c.Set(&p, c.Default)
		if got := c.Get(&p); got != c.Default {
			t.Errorf("Point.%s: default %q came back as %q", c.Field, c.Default, got)
		}
		if got := c.Get(&Match{}); got != "" {
			t.Errorf("unset Match.%s reads %q, want the wildcard", c.Field, got)
		}
	}
	if n := reflect.TypeOf(Point{}).NumField(); n != len(scenario.Coords) {
		t.Errorf("Point has %d fields for %d coordinates", n, len(scenario.Coords))
	}
}
