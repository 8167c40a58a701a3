package exp

import (
	"fmt"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/live"
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

	workloads := []struct {
		name string
		mk   func() live.Object
	}{
		{"atomic-fi", func() live.Object { return live.NewAtomicFetchInc("C", 0) }},
		{"junk-fi(stick:120)", func() live.Object { return live.NewJunkFetchInc("C", 120) }},
	}
	specs := []check.MonitorSpec{
		{Kind: check.MonitorFull},
		{Kind: check.MonitorSample, N: 4},
		{Kind: check.MonitorNone},
	}

	for _, w := range workloads {
		for _, ms := range specs {
			res, err := live.Run(live.Config{
				Object:      w.mk(),
				Clients:     4,
				Ops:         300,
				Seed:        3,
				Serial:      true,
				Monitor:     check.IncrementalConfig{Stride: 64},
				MonitorSpec: ms,
			})
			if err != nil {
				return nil, fmt.Errorf("E20 %s %s: %w", w.name, ms, err)
			}
			verdict, trend, finalMinT := "clean", res.Verdict.Trend.String(), fmt.Sprint(res.Verdict.FinalMinT)
			if res.Violation != nil {
				verdict = "caught"
			}
			if ms.Kind == check.MonitorNone {
				verdict, trend, finalMinT = "recorded", "-", "-"
			}
			t.AddRow(w.name, ms.String(), res.History.Len(), len(res.Verdict.Samples),
				verdict, trend, finalMinT)
		}
	}
	return t, nil
}
