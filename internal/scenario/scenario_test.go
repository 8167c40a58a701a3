package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/spec"
	"github.com/elin-go/elin/internal/wal"
)

// TestOneScenarioEveryEngine is the tentpole contract: one Scenario value,
// unchanged, runs on all three engines and the verdicts agree where the
// regimes overlap.
func TestOneScenarioEveryEngine(t *testing.T) {
	// A linearizable counter: every engine must say ok.
	correct := Scenario{
		Impl:     "cas-counter",
		Workload: "uniform:inc",
		Procs:    2,
		Ops:      2,
		Seed:     3,
		Budget:   Budget{Depth: 22},
	}
	for _, e := range Engines() {
		rep, err := e.Run(correct)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if !rep.OK() {
			t.Errorf("%s verdict = %s (%s), want ok", e.Name(), rep.Verdict, rep.Detail)
		}
		if rep.Engine != e.Name() {
			t.Errorf("report engine = %q, want %q", rep.Engine, e.Name())
		}
		if rep.Scenario.Impl != "cas-counter" || rep.Scenario.Workload != "uniform:inc" {
			t.Errorf("%s scenario echo = %+v", e.Name(), rep.Scenario)
		}
	}

	// A broken counter whose second completed operation answers out of
	// left field: every engine must produce a counterexample, whatever the
	// schedule.
	broken := Scenario{
		Impl:      "junk-counter",
		Workload:  "uniform:inc",
		Procs:     2,
		Ops:       2,
		Seed:      5,
		Tolerance: 0,
		Budget:    Budget{Depth: 16},
	}
	for _, e := range Engines() {
		rep, err := e.Run(broken)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if rep.Verdict != VerdictViolation {
			t.Errorf("%s verdict = %s (%s), want violation", e.Name(), rep.Verdict, rep.Detail)
		}
		if rep.Witness == nil || rep.Witness.History == "" {
			t.Errorf("%s violation carries no witness history", e.Name())
		}
	}

	// An eventually linearizable counter mid-stabilization: the strict
	// verdict is a violation on the deterministic engines, and observe-only
	// tolerance turns it back into a pass.
	eventual := Scenario{
		Impl:      "warmup-counter:2",
		Workload:  "uniform:inc",
		Procs:     2,
		Ops:       2,
		Seed:      5,
		Chooser:   "stale",
		Policy:    "window:2",
		Tolerance: 0,
		Budget:    Budget{Depth: 16},
	}
	for _, name := range []string{"explore", "sim"} {
		rep, err := Run(name, eventual)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Verdict != VerdictViolation {
			t.Errorf("%s verdict = %s (%s), want violation", name, rep.Verdict, rep.Detail)
		}
	}
	observe := eventual
	observe.Tolerance = -1
	for _, name := range []string{"sim", "live"} {
		rep, err := Run(name, observe)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.OK() {
			t.Errorf("%s observe-only verdict = %s (%s), want ok", name, rep.Verdict, rep.Detail)
		}
	}
}

// TestCellID pins the canonical cell-identity vocabulary campaign grids
// and baselines match on.
func TestCellID(t *testing.T) {
	// Defaults resolve: the zero scenario and the spelled-out default
	// scenario name the same grid point.
	zero := Scenario{}.CellID("")
	spelled := Scenario{Impl: "cas-counter", Workload: "default", Policy: "immediate", Procs: 2, Ops: 2}.CellID("sim")
	if zero != spelled {
		t.Errorf("default identity split: %q vs %q", zero, spelled)
	}
	want := "engine=sim impl=cas-counter workload=default policy=immediate sched=rr chooser=true procs=2 ops=2 tol=0 seed=0"
	if zero != want {
		t.Errorf("sim cell id = %q, want %q", zero, want)
	}

	s := Scenario{Impl: "warmup-counter:2", Workload: "uniform:inc", Policy: "window:2",
		Procs: 3, Ops: 4, Tolerance: -1, Seed: 9, Analysis: AnalysisValency}
	if got, want := s.CellID("explore"),
		"engine=explore impl=warmup-counter:2 workload=uniform:inc policy=window:2 analysis=valency procs=3 ops=4 tol=-1 seed=9"; got != want {
		t.Errorf("explore cell id = %q, want %q", got, want)
	}
	// The live engine carries neither analysis nor scheduler coordinates.
	if id := s.CellID("live"); strings.Contains(id, "analysis=") || strings.Contains(id, "sched=") {
		t.Errorf("live cell id has foreign coordinates: %q", id)
	}
	// Identities separate every axis the grid sweeps.
	other := s
	other.Seed = 10
	if s.CellID("live") == other.CellID("live") {
		t.Error("seed does not separate cell identities")
	}
}

// TestEngineByName pins the engine registry.
func TestEngineByName(t *testing.T) {
	for name, want := range map[string]string{
		"":        "sim",
		"sim":     "sim",
		"explore": "explore",
		"live":    "live",
	} {
		e, err := EngineByName(name)
		if err != nil {
			t.Fatalf("EngineByName(%q): %v", name, err)
		}
		if e.Name() != want {
			t.Errorf("EngineByName(%q) = %s, want %s", name, e.Name(), want)
		}
	}
	if _, err := EngineByName("nosuch"); err == nil || !strings.Contains(err.Error(), "explore") {
		t.Errorf("unknown engine error does not list names: %v", err)
	}
}

// TestScenarioErrors pins that resolution errors surface with the
// available names.
func TestScenarioErrors(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
		eng  string
	}{
		{"unknown impl", Scenario{Impl: "nosuch"}, "explore"},
		{"unknown impl sim", Scenario{Impl: "nosuch"}, "sim"},
		{"unknown impl live", Scenario{Impl: "nosuch"}, "live"},
		{"unknown workload", Scenario{Workload: "nosuch"}, "sim"},
		{"unknown scheduler", Scenario{Scheduler: "nosuch"}, "sim"},
		{"unknown chooser", Scenario{Chooser: "nosuch"}, "sim"},
		{"unknown policy", Scenario{Policy: "nosuch"}, "explore"},
		{"unknown analysis", Scenario{Analysis: "nosuch"}, "explore"},
	}
	for _, tc := range cases {
		if _, err := Run(tc.eng, tc.s); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestExploreAnalyses exercises the non-default analyses end to end.
func TestExploreAnalyses(t *testing.T) {
	// Registers cannot solve consensus: the valency analysis must find
	// agreement violations (the Proposition 15 case analysis).
	valency := Scenario{
		Impl:     "reg-consensus",
		Procs:    2,
		Ops:      1,
		Analysis: AnalysisValency,
		Budget:   Budget{Depth: 18},
	}
	rep, err := Run("explore", valency)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolation || rep.Valency == nil || rep.Valency.AgreementViolations == 0 {
		t.Fatalf("reg-consensus valency report: verdict=%s valency=%+v", rep.Verdict, rep.Valency)
	}
	if len(rep.Valency.RootValence) < 2 {
		t.Errorf("reg-consensus root should be multivalent, got %v", rep.Valency.RootValence)
	}

	// A real consensus base solves it: no violations, critical pivots
	// exist.
	strong := valency
	strong.Impl = "base-consensus"
	rep, err = Run("explore", strong)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Valency == nil || rep.Valency.AgreementViolations != 0 {
		t.Fatalf("base-consensus valency report: verdict=%s valency=%+v", rep.Verdict, rep.Valency)
	}

	stable := Scenario{
		Impl:     "warmup-counter:2",
		Procs:    2,
		Ops:      3,
		Policy:   "never",
		Analysis: AnalysisStable,
		Budget:   Budget{Depth: 8, VerifyDepth: 14},
	}
	rep, err = Run("explore", stable)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Stable == nil {
		t.Fatalf("stable report: verdict=%s stable=%+v", rep.Verdict, rep.Stable)
	}

	weak := Scenario{
		Impl:     "junk-counter",
		Procs:    2,
		Ops:      1,
		Policy:   "never",
		Analysis: AnalysisWeak,
		Budget:   Budget{Depth: 10},
	}
	rep, err = Run("explore", weak)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolation {
		t.Fatalf("junk-counter weak verdict = %s, want violation", rep.Verdict)
	}
}

// TestLiveFuzzScenario drives the fuzz path through the Scenario API: the
// junk counter must be caught at the first seed, shrunk and sim-refuted;
// the correct counter must pass every run.
func TestLiveFuzzScenario(t *testing.T) {
	s := Scenario{
		Impl:     "junk-fi:20",
		Procs:    2,
		Ops:      400,
		Seed:     1,
		Stride:   64,
		FuzzRuns: 3,
	}
	rep, err := Run("live", s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolation || rep.Fuzz == nil || !rep.Fuzz.Found {
		t.Fatalf("junk fuzz: verdict=%s fuzz=%+v", rep.Verdict, rep.Fuzz)
	}
	if rep.Fuzz.Seed != 1 || rep.Fuzz.Runs != 1 {
		t.Errorf("junk fuzz stopped at seed %d after %d runs, want seed 1 after 1", rep.Fuzz.Seed, rep.Fuzz.Runs)
	}
	if rep.Witness == nil || rep.Witness.Shrunk == nil || !rep.Witness.Shrunk.SimDiverged {
		t.Fatalf("junk fuzz witness not sim-refuted: %+v", rep.Witness)
	}

	clean, err := Run("live", Scenario{Impl: "atomic-fi", Procs: 4, Ops: 200, Seed: 100, Stride: 64, FuzzRuns: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.OK() || clean.Fuzz == nil || clean.Fuzz.Found || clean.Witness != nil {
		t.Fatalf("fuzz flagged the correct counter: %s (%s)", clean.Verdict, clean.Detail)
	}
	if clean.Fuzz.Runs != 3 || clean.Fuzz.TotalOps != 3*4*200 || clean.Detail != "no violation in 3 runs" {
		t.Fatalf("campaign stats: %+v, detail %q", clean.Fuzz, clean.Detail)
	}
}

// TestLiveFuzzSeedReruns pins a campaign to its single runs: run i is the
// scenario at Seed+i, response choices included, so the seed a campaign
// reports reruns its violation. The serial driver makes both runs
// deterministic; el-fi's stale responses depend on the seed's choices.
func TestLiveFuzzSeedReruns(t *testing.T) {
	s := Scenario{
		Impl: "el-fi", Policy: "window:20", Procs: 2, Ops: 100, Stride: 64,
		Tolerance: 35, Serial: true, Seed: 1, FuzzRuns: 4, NoShrink: true,
	}
	camp, err := Run("live", s)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Fuzz == nil || !camp.Fuzz.Found || camp.Fuzz.Seed != 3 || camp.Fuzz.Runs != 3 {
		t.Fatalf("campaign: verdict=%s fuzz=%+v, want found at seed 3 after 3 runs", camp.Verdict, camp.Fuzz)
	}
	one := s
	one.Seed, one.FuzzRuns = camp.Fuzz.Seed, 0
	rep, err := Run("live", one)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolation {
		t.Fatalf("seed %d rerun: verdict=%s (%s), want the campaign's violation", one.Seed, rep.Verdict, rep.Detail)
	}
	if want := "violation at seed 3: " + rep.Detail; camp.Detail != want {
		t.Errorf("campaign detail %q, want %q", camp.Detail, want)
	}
	cw, rw := camp.Witness, rep.Witness
	if cw == nil || rw == nil || cw.WindowStart != rw.WindowStart || cw.WindowEnd != rw.WindowEnd || cw.MinT != rw.MinT {
		t.Errorf("campaign witness %+v, rerun witness %+v: want the same window and MinT", cw, rw)
	}
	if got, want := camp.Fuzz.TotalOps, 2*2*100+rep.Perf.Ops; got != want {
		t.Errorf("campaign total_ops = %d, want %d (two clean runs + the violating one)", got, want)
	}
}

// TestLiveFuzzRejects pins what a campaign does not compose with: faults,
// a WAL and a recovered prefix. A rejected campaign writes no log.
func TestLiveFuzzRejects(t *testing.T) {
	s := Scenario{Impl: "atomic-fi", Procs: 1, Ops: 10, FuzzRuns: 2}
	faulted, logged := s, s
	faulted.Faults = "jitter:2"
	logged.WAL = filepath.Join(t.TempDir(), "fuzz.wal")
	for name, run := range map[string]func() (*Report, error){
		"faults":   func() (*Report, error) { return Run("live", faulted) },
		"wal":      func() (*Report, error) { return Run("live", logged) },
		"recovery": func() (*Report, error) { return Continue(&wal.Recovered{}, s) },
	} {
		if _, err := run(); err == nil || !strings.Contains(err.Error(), "fuzz campaigns do not compose") {
			t.Errorf("%s: err = %v, want the fuzz rejection", name, err)
		}
	}
	if _, err := os.Stat(logged.WAL); !os.IsNotExist(err) {
		t.Errorf("a rejected campaign created its WAL: %v", err)
	}
	bad := s
	bad.Faults = "explode:9"
	if _, err := Run("live", bad); err == nil || strings.Contains(err.Error(), "fuzz campaigns") {
		t.Errorf("unparseable faults: err = %v, want the parse error", err)
	}
}

// TestSimChecksReadOffTrend pins the sim engine's one pass: the report's
// MinT is the trend's last sample, linearizable means MinT 0, and both equal
// what check.MinT and check.Linearizable answer on the recorded history.
func TestSimChecksReadOffTrend(t *testing.T) {
	for _, s := range []Scenario{
		{Impl: "cas-counter", Procs: 2, Ops: 3, Seed: 1},
		{Impl: "junk-counter", Procs: 3, Ops: 3, Seed: 1, Tolerance: -1},
		{Impl: "warmup-counter:2", Procs: 2, Ops: 2, Chooser: "stale", Policy: "window:2", Seed: 5, Tolerance: -1},
		{Impl: "sloppy-counter", Procs: 2, Ops: 3, Seed: 2, Tolerance: -1, Check: check.Options{NoFastPath: true}},
		{Impl: "el-register", Procs: 2, Ops: 3, Policy: "never", Seed: 3, Tolerance: -1},
		{Impl: "slog-counter", Procs: 2, Ops: 3, Seed: 4, Tolerance: -1},
	} {
		rep, err := Sim{}.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Impl, err)
		}
		c, tr := rep.Checks, rep.Trend
		if c == nil || c.MinT == nil || c.Linearizable == nil || tr == nil {
			t.Fatalf("%s: checks %+v, trend %+v", s.Impl, c, tr)
		}
		if *c.MinT != tr.FinalMinT || *c.Linearizable != (*c.MinT == 0) {
			t.Errorf("%s: MinT %d, linearizable %v, trend final MinT %d", s.Impl, *c.MinT, *c.Linearizable, tr.FinalMinT)
		}
		impl, err := registry.Impl(s.Impl)
		if err != nil {
			t.Fatal(err)
		}
		h := rep.History()
		mt, _, err := check.MinT(impl.Spec(), h, s.Check)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := check.Linearizable(map[string]spec.Object{impl.Name(): impl.Spec()}, h, s.Check)
		if err != nil {
			t.Fatal(err)
		}
		if mt != *c.MinT || lin != *c.Linearizable {
			t.Errorf("%s: report MinT %d linearizable %v, history MinT %d linearizable %v\n%s",
				s.Impl, *c.MinT, *c.Linearizable, mt, lin, h)
		}
	}
}

// TestSimVerdictIsDefinition3: at a tolerance MinT stays within, a history
// that is not weakly consistent is a violation naming the first failing
// operation, with the history as its witness; a negative tolerance only
// observes it, and a weakly consistent history within tolerance is ok.
func TestSimVerdictIsDefinition3(t *testing.T) {
	junk := Scenario{Impl: "junk-counter", Procs: 3, Ops: 6, Seed: 1, Tolerance: 35}
	rep, err := Sim{}.Run(junk)
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Checks; *c.MinT != 35 || *c.WeaklyConsistent {
		t.Fatalf("checks: MinT %d, weakly consistent %v; want 35, false", *c.MinT, *c.WeaklyConsistent)
	}
	const detail = "not weakly consistent at p1 junk-counter.fetchinc -> 101 [1,5]"
	if rep.Verdict != VerdictViolation || rep.Detail != detail {
		t.Errorf("verdict %s (%s), want violation (%s)", rep.Verdict, rep.Detail, detail)
	}
	if w := rep.Witness; w == nil || w.History != rep.History().String() || w.MinT != 35 {
		t.Errorf("witness %+v, want the history at MinT 35", w)
	}

	junk.Tolerance = -1
	if rep, err = (Sim{}).Run(junk); err != nil || rep.Verdict != VerdictOK || rep.Witness != nil {
		t.Errorf("observe-only: %v, verdict %s (%s)", err, rep.Verdict, rep.Detail)
	}
	warm := Scenario{Impl: "warmup-counter:2", Procs: 2, Ops: 2, Chooser: "stale", Policy: "window:2", Seed: 5, Tolerance: 3}
	if rep, err = (Sim{}).Run(warm); err != nil || rep.Verdict != VerdictOK || !*rep.Checks.WeaklyConsistent {
		t.Errorf("weakly consistent within tolerance: %v, verdict %s (%s)", err, rep.Verdict, rep.Detail)
	}
	// A counter's reads are operations fetch&inc cannot apply: no t works,
	// which is a violation at any tolerance, as in a monitor window.
	reads := Scenario{Impl: "cas-counter", Workload: "uniform:read", Procs: 2, Ops: 2, Tolerance: 1 << 20}
	if rep, err = (Sim{}).Run(reads); err != nil || rep.Verdict != VerdictViolation || *rep.Checks.MinT != -1 {
		t.Errorf("no t works: %v, verdict %s (%s)", err, rep.Verdict, rep.Detail)
	}
}
