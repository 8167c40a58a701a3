package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/check"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden report files")

// goldenScenarios are deterministic scenarios whose canonical report JSON
// is pinned byte-for-byte, one per engine plus the violation shapes. Any
// drift here is a Report schema change: bump Schema and regenerate with
// `go test ./internal/scenario -run Golden -update`.
func goldenScenarios() []struct {
	name   string
	engine string
	s      Scenario
} {
	return []struct {
		name   string
		engine string
		s      Scenario
	}{
		{
			name:   "explore_lin_ok",
			engine: "explore",
			s: Scenario{
				Impl:     "cas-counter",
				Workload: "uniform:inc",
				Procs:    2,
				Ops:      1,
				Budget:   Budget{Depth: 12},
			},
		},
		{
			name:   "explore_valency_violation",
			engine: "explore",
			s: Scenario{
				Impl:     "reg-consensus",
				Procs:    2,
				Ops:      1,
				Analysis: AnalysisValency,
				Budget:   Budget{Depth: 18},
			},
		},
		{
			name:   "sim_warmup_violation",
			engine: "sim",
			s: Scenario{
				Impl:    "warmup-counter:2",
				Procs:   2,
				Ops:     2,
				Seed:    5,
				Chooser: "stale",
				Policy:  "window:2",
				Budget:  Budget{MaxSteps: 4096},
			},
		},
		{
			name:   "live_cas_ok",
			engine: "live",
			s: Scenario{
				Impl:     "cas-counter",
				Workload: "uniform:inc",
				Procs:    2,
				Ops:      4,
				Seed:     1,
			},
		},
	}
}

// TestGoldenReports pins the stable JSON encoding of the unified Report on
// every engine.
func TestGoldenReports(t *testing.T) {
	for _, tc := range goldenScenarios() {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(tc.engine, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rep.Canonical().EncodeJSON(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden.json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report drift for %s:\ngot:\n%s\nwant:\n%s", tc.name, buf.Bytes(), want)
			}
		})
	}
}

// TestCanonicalZeroesWallClock pins that Canonical strips every
// run-dependent field but keeps the deterministic ones.
func TestCanonicalZeroesWallClock(t *testing.T) {
	rep, err := Run("live", Scenario{Impl: "atomic-fi", Procs: 2, Ops: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Perf == nil || rep.Perf.NS == 0 {
		t.Fatalf("live run reported no wall-clock time: %+v", rep.Perf)
	}
	canon := rep.Canonical()
	if canon.Perf.NS != 0 || canon.Perf.ThroughputOpsS != 0 || canon.Perf.P99NS != 0 || canon.Perf.Gomaxprocs != 0 {
		t.Errorf("canonical perf keeps wall-clock fields: %+v", canon.Perf)
	}
	if canon.Perf.Ops != rep.Perf.Ops || canon.Perf.Events != rep.Perf.Events {
		t.Errorf("canonical perf lost deterministic fields: %+v", canon.Perf)
	}
	if rep.Perf.NS == 0 {
		t.Error("Canonical mutated the original report")
	}
}

// TestReportRender smoke-tests the human rendering of each golden report.
func TestReportRender(t *testing.T) {
	for _, tc := range goldenScenarios() {
		rep, err := Run(tc.engine, tc.s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Render(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "verdict: "+rep.Verdict) {
			t.Errorf("%s render misses verdict:\n%s", tc.name, out)
		}
		if !strings.Contains(out, "engine="+tc.engine) {
			t.Errorf("%s render misses engine:\n%s", tc.name, out)
		}
	}
}

// An observe-only live run reports the windows its search budget could not
// decide apart from the windows it measured, canonically and rendered.
func TestLiveReportCountsUndecidedWindows(t *testing.T) {
	rep, err := Run("live", Scenario{
		Impl: "el-register", Procs: 2, Ops: 200, Seed: 9, Tolerance: -1, Serial: true,
		Check: check.Options{Budget: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Trend
	if tr == nil || tr.Undecided == 0 {
		t.Fatalf("trend %+v, want undecided windows", tr)
	}
	if got := rep.Canonical().Trend.Undecided; got != tr.Undecided {
		t.Errorf("canonical undecided = %d, want %d", got, tr.Undecided)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(" windows=%d undecided=%d\n", tr.Windows, tr.Undecided); !strings.Contains(buf.String(), want) {
		t.Errorf("render lacks %q:\n%s", want, buf.String())
	}
}

// A live run under a sampling monitor reports the windows it skipped, on
// the run: line; the canonical report zeroes the count, as it does the
// Serve engine's.
func TestLiveReportCountsSkippedWindows(t *testing.T) {
	rep, err := Run("live", Scenario{Impl: "atomic-fi", Procs: 2, Ops: 400, Seed: 1, Serial: true, Stride: 16, Monitor: "sample:4"})
	if err != nil {
		t.Fatal(err)
	}
	skipped := rep.Perf.MonWindowsSkipped
	if skipped == 0 || rep.Perf.Overloaded {
		t.Fatalf("perf %+v, want skipped windows without overload", rep.Perf)
	}
	if got := rep.Canonical().Perf.MonWindowsSkipped; got != 0 {
		t.Errorf("canonical skipped = %d, want 0", got)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(" skipped=%d\n", skipped); !strings.Contains(buf.String(), want) {
		t.Errorf("render lacks %q:\n%s", want, buf.String())
	}
}
