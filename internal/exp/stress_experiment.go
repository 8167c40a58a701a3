package exp

import (
	"fmt"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/passthrough"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/spec"
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

	type row struct {
		name    string
		mk      func() (live.Object, error)
		clients int
		ops     int
		monitor check.IncrementalConfig
		buggy   bool
	}
	rows := []row{
		{
			name:    "atomic-fi",
			mk:      func() (live.Object, error) { return live.NewAtomicFetchInc("C", 0), nil },
			clients: 4, ops: 1500,
			monitor: check.IncrementalConfig{Stride: 512},
		},
		{
			name: "mutex-fi",
			mk: func() (live.Object, error) {
				return live.NewSerializedImpl(passthrough.New("C", spec.NewObject(spec.FetchInc{}), false), 4, nil, 17, check.Options{})
			},
			clients: 4, ops: 1500,
			monitor: check.IncrementalConfig{Stride: 512},
		},
		{
			name: "el-fi(window:400)",
			mk: func() (live.Object, error) {
				return live.NewSerializedImpl(passthrough.New("C", spec.NewObject(spec.FetchInc{}), true), 1,
					base.SamePolicy(base.Window{K: 400}), 17, check.Options{})
			},
			clients: 1, ops: 1200,
			monitor: check.IncrementalConfig{Stride: 256, MaxT: -1},
		},
		{
			name:    "junk-fi(stick:40)",
			mk:      func() (live.Object, error) { return live.NewJunkFetchInc("C", 40), nil },
			clients: 1, ops: 150,
			monitor: check.IncrementalConfig{Stride: 64},
			buggy:   true,
		},
	}

	for _, r := range rows {
		obj, err := r.mk()
		if err != nil {
			return nil, fmt.Errorf("E17 %s: %w", r.name, err)
		}
		res, err := live.Run(live.Config{
			Object:  obj,
			Clients: r.clients,
			Ops:     r.ops,
			Seed:    17,
			Monitor: r.monitor,
		})
		if err != nil {
			return nil, fmt.Errorf("E17 %s: %w", r.name, err)
		}
		verdict := "clean"
		shrunk, simDiverged := "-", "-"
		if res.Violation != nil {
			verdict = "caught"
			w, err := live.Shrink(res.Violation, check.Options{})
			if err != nil {
				return nil, fmt.Errorf("E17 %s shrink: %w", r.name, err)
			}
			shrunk = fmt.Sprintf("%d", w.Ops)
			simDiverged = fmt.Sprintf("%v", w.Replay.Diverged)
		}
		if r.buggy != (verdict == "caught") {
			return nil, fmt.Errorf("E17 %s: verdict %s does not match expectation (buggy=%v)",
				r.name, verdict, r.buggy)
		}
		// Replay identity covers whatever was merged (a violation stop
		// truncates the history at the offending window's end).
		same, err := live.Verify(obj, res.History)
		if err != nil {
			return nil, fmt.Errorf("E17 %s verify: %w", r.name, err)
		}
		replay := "identical"
		if !same {
			replay = "DIVERGED"
		}
		t.AddRow(r.name, r.clients, res.History.Len(), len(res.Verdict.Samples), verdict,
			res.Verdict.Trend.String(), replay, shrunk, simDiverged)
	}
	return t, nil
}
