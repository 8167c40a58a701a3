package exp

import (
	"fmt"

	"github.com/elin-go/elin/internal/scenario"
)

// E20MonitorGap is the monitored-gap matrix behind the check.Monitor API:
// the same deterministic serial run under every monitor spec the
// vocabulary has. sample:4 checks fewer windows than full by design and must
// still reach the same verdict. The other half of the gap, what monitoring
// costs in throughput, is schedule-dependent and measured by the repo
// benchmark (bash bench/run.sh: live-record vs live-monitored).
func E20MonitorGap(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E20",
		Artifact: "Monitor API",
		Title:    "Monitored-gap matrix: one serial run under every monitor spec",
		Columns:  []string{"workload", "monitor", "events", "windows-checked", "verdict", "trend", "final-minT"},
		Notes: []string{
			"every row of one workload replays the identical serial event sequence; monitor specs differ only in how the windows are checked",
			"sample:4 skips windows by design and must reach full's verdict",
			"none is record-only: no windows, no verdict — the absence the other rows are measured against",
			"throughput gaps are schedule-dependent: bash bench/run.sh measures full vs none end to end (live-monitored vs live-record)",
		},
	}

	workloads := []struct{ name, impl string }{
		{"atomic-fi", "atomic-fi"},
		{"junk-fi(stick:120)", "junk-fi:120"},
	}
	for _, w := range workloads {
		for _, monitor := range []string{"full", "sample:4", "none"} {
			rep, err := scenario.Run("live", scenario.Scenario{
				Impl: w.impl, Procs: 4, Ops: 300, Seed: 3, Serial: true,
				Stride: 64, Monitor: monitor, NoShrink: true, NoVerify: true,
			})
			if err != nil {
				return nil, fmt.Errorf("E20 %s %s: %w", w.name, monitor, err)
			}
			verdict, trend, finalMinT, windows := "recorded", "-", "-", 0
			if tr := rep.Trend; tr != nil {
				verdict, trend, finalMinT, windows = "clean", tr.Trend, fmt.Sprint(tr.FinalMinT), tr.Windows
				if rep.Verdict == scenario.VerdictViolation {
					verdict = "caught"
				}
			}
			t.AddRow(w.name, monitor, rep.Perf.Events, windows, verdict, trend, finalMinT)
		}
	}
	return t, nil
}
