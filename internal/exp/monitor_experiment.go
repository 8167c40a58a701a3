package exp

import (
	"fmt"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/live"
)

// E20MonitorGap is the monitored-gap matrix behind the check.Monitor API:
// the same deterministic serial run under every monitor spec the
// vocabulary has. The table pins verdict equivalence — full and shard:4
// must agree on verdict, trend, final MinT and (on the junk workload) the
// violation window; sample:4 checks fewer windows by design and is held to
// the verdict only. The other half of the gap, what monitoring costs in
// throughput and whether shard:K buys any of it back, is
// schedule-dependent and measured by the repo benchmark (bash
// bench/run.sh: live-record vs live-monitored, and the per-layer
// check.fi.shard_speedup).
func E20MonitorGap(cfg Config) (*Table, error) {
	t := &Table{
		ID:       "E20",
		Artifact: "Monitor API",
		Title:    "Monitored-gap matrix: one serial run under every monitor spec",
		Columns:  []string{"workload", "monitor", "events", "windows-checked", "verdict", "trend", "final-minT", "matches-full"},
		Notes: []string{
			"every row of one workload replays the identical serial event sequence; monitor specs differ only in how the windows are checked",
			"the events column on a caught run shows the checker pool's documented detection lag: shard:4 keeps recording while the violating window's check runs off the hot path, yet reports the identical violation window",
			"matches-full: verdict, trend, final MinT and (junk workload) the violation window equal the inline full monitor's; sample:4 skips windows by design, so it is held to the verdict only",
			"none is record-only: no windows, no verdict — the absence the other rows are measured against",
			"throughput gaps are schedule-dependent: bash bench/run.sh measures full vs none end to end (live-monitored vs live-record) and shard:K vs full per layer (check.fi.shard_speedup)",
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
		{Kind: check.MonitorShardWindow, N: 4},
		{Kind: check.MonitorNone},
	}

	for _, w := range workloads {
		var ref *live.Result
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
			if ms.Kind == check.MonitorFull {
				ref = res
			}
			verdict, trend, finalMinT := "clean", res.Verdict.Trend.String(), fmt.Sprint(res.Verdict.FinalMinT)
			if res.Violation != nil {
				verdict = "caught"
			}
			if ms.Kind == check.MonitorNone {
				verdict, trend, finalMinT = "recorded", "-", "-"
			}
			t.AddRow(w.name, ms.String(), res.History.Len(), len(res.Verdict.Samples),
				verdict, trend, finalMinT, matchesFull(ref, res, ms))
		}
	}
	return t, nil
}

// matchesFull scores a row against the inline full-monitor reference.
func matchesFull(ref, res *live.Result, ms check.MonitorSpec) string {
	switch ms.Kind {
	case check.MonitorFull:
		return "ref"
	case check.MonitorNone:
		return "n/a"
	case check.MonitorSample:
		if (ref.Violation == nil) == (res.Violation == nil) {
			return "verdict"
		}
		return "NO"
	}
	if (ref.Violation == nil) != (res.Violation == nil) {
		return "NO"
	}
	if ref.Violation != nil {
		rv, sv := ref.Violation, res.Violation
		if rv.Start != sv.Start || rv.End != sv.End || rv.MinT != sv.MinT || rv.Window.String() != sv.Window.String() {
			return "NO"
		}
	}
	if ref.Verdict.Trend != res.Verdict.Trend || ref.Verdict.FinalMinT != res.Verdict.FinalMinT ||
		len(ref.Verdict.Samples) != len(res.Verdict.Samples) {
		return "NO"
	}
	return "yes"
}
