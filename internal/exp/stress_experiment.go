package exp

import (
	"fmt"

	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/scenario"
)

// E17Stress exercises the live concurrent runtime end to end: goroutine
// clients against genuinely shared objects, online windowed monitoring,
// and — for the injected-bug counter — the full catch → shrink → sim-replay
// pipeline. Table cells are restricted to schedule-independent quantities
// (multi-client interleavings vary run to run; completed-op counts,
// violation verdicts and trends do not). The buggy and eventually
// linearizable rows run a single client so that even the shrunk witness
// size is reproducible.
func E17Stress(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E17",
		Artifact: "Live runtime",
		Title:    "Goroutine stress harness: online windowed t-lin monitoring, fuzz + shrink-to-sim",
		Columns:  []string{"object", "clients", "events", "windows", "verdict", "trend", "replay", "shrunk-ops", "sim-diverged"},
		Notes: []string{
			"verdict: clean = no window exceeded tolerance; caught = the online monitor stopped the run",
			"replay: identical = re-deriving every response from the recorded commit order reproduces the merged history byte for byte",
			"shrunk-ops / sim-diverged: size of the ddmin-minimized window and whether its commit-order replay diverges in the deterministic simulator",
			"throughput/latency are schedule-dependent, so not table cells: elin stress prints them for one run, bash bench/run.sh measures them with spread",
		},
	}

	rows := []struct {
		name  string
		s     scenario.Scenario
		buggy bool
	}{
		{name: "atomic-fi", s: scenario.Scenario{Impl: "atomic-fi", Procs: 4, Ops: 1500, Stride: 512}},
		{name: "mutex-fi", s: scenario.Scenario{Impl: "mutex-fi", Procs: 4, Ops: 1500, Stride: 512}},
		{name: "el-fi(window:400)", s: scenario.Scenario{Impl: "el-fi", Policy: "window:400", Procs: 1, Ops: 1200, Stride: 256, Tolerance: -1}},
		{name: "junk-fi(stick:40)", s: scenario.Scenario{Impl: "junk-fi:40", Procs: 1, Ops: 150, Stride: 64}, buggy: true},
	}

	for _, r := range rows {
		r.s.Seed = 17
		rep, err := scenario.Run("live", r.s)
		if err != nil {
			return nil, fmt.Errorf("E17 %s: %w", r.name, err)
		}
		verdict := "clean"
		shrunk, simDiverged := "-", "-"
		var same bool
		if rep.Verdict == scenario.VerdictViolation {
			verdict = "caught"
			shrunk = fmt.Sprint(rep.Witness.Shrunk.Ops)
			simDiverged = fmt.Sprint(rep.Witness.Shrunk.SimDiverged)
			// A violation report carries no replay check: replay the
			// history it merged (cut at the offending window's end)
			// against a fresh object here.
			if same, err = replayFresh(r.s, rep); err != nil {
				return nil, fmt.Errorf("E17 %s verify: %w", r.name, err)
			}
		} else {
			same = *rep.Checks.ReplayIdentical
		}
		if r.buggy != (verdict == "caught") {
			return nil, fmt.Errorf("E17 %s: verdict %s does not match expectation (buggy=%v)",
				r.name, verdict, r.buggy)
		}
		replay := "identical"
		if !same {
			replay = "DIVERGED"
		}
		t.AddRow(r.name, r.s.Procs, rep.Perf.Events, rep.Trend.Windows, verdict,
			rep.Trend.Trend, replay, shrunk, simDiverged)
	}
	return t, nil
}

// replayFresh replays rep's history against a fresh registry object of s.
func replayFresh(s scenario.Scenario, rep *scenario.Report) (bool, error) {
	pol, err := registry.Policy(s.Policy)
	if err != nil {
		return false, err
	}
	obj, err := registry.LiveObject(s.Impl, s.Procs, pol, s.Seed, s.Check)
	if err != nil {
		return false, err
	}
	return live.Verify(obj, rep.History())
}
