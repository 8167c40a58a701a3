package check_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/gen"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/spec"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/monitor_golden.json")

// goldenCase is one pinned event stream and the windowing it is monitored
// under. The streams are deterministic: seeded generators and the live
// engine's serial driver.
type goldenCase struct {
	name   string
	obj    spec.Object
	cfg    check.IncrementalConfig
	events func(t *testing.T) []history.Event
}

func serialRun(impl, policy string, seed int64, clients, ops int) func(*testing.T) []history.Event {
	return func(t *testing.T) []history.Event {
		t.Helper()
		pol, err := registry.Policy(policy)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := registry.LiveObject(impl, clients, pol, seed, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := live.Run(live.Config{
			Object: obj, Clients: clients, Ops: ops, Seed: seed, Serial: true,
			MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.History.Events()
	}
}

func generated(seed int64, cfg gen.HistoryConfig) func(*testing.T) []history.Event {
	return func(*testing.T) []history.Event {
		return gen.FetchInc(rand.New(rand.NewSource(seed)), cfg).Events()
	}
}

var fetchInc = spec.NewObject(spec.FetchInc{})

var goldenCases = []goldenCase{
	// Overlapping operations, every window linearizable: the probe settles it.
	{"gen-fi-seed1", fetchInc, check.IncrementalConfig{Stride: 64},
		generated(1, gen.HistoryConfig{Procs: 4, Ops: 1500, PendingBias: 0.5})},
	// Overlapping operations with corrupted responses, observe-only: most
	// windows have MinT > 0 and pay the bisection.
	{"gen-fi-corrupt-seed7", fetchInc, check.IncrementalConfig{Stride: 48, MaxT: -1},
		generated(7, gen.HistoryConfig{Procs: 3, Ops: 1200, PendingBias: 0.4, Corrupt: 0.05})},
	// The injected bug: the window holding the first lost increment violates.
	{"junk-fi-40-seed1", fetchInc, check.IncrementalConfig{Stride: 64},
		serialRun("junk-fi:40", "never", 1, 2, 500)},
	// An eventually linearizable counter under a positive tolerance.
	{"el-fi-window300-seed9", fetchInc, check.IncrementalConfig{Stride: 128, MaxT: 200},
		serialRun("el-fi", "window:300", 9, 2, 1500)},
}

var goldenMonitors = []string{"full", "sample:3", "shard:1", "shard:2", "shard:4"}

// goldenResult is what one monitor reports on one stream.
type goldenResult struct {
	Checks      int            `json:"checks"`
	Skipped     int            `json:"skipped"`
	Escalations int            `json:"escalations"`
	Samples     []check.Sample `json:"samples"`
	Violation   *goldenWindow  `json:"violation,omitempty"`
}

type goldenWindow struct {
	Start  int    `json:"start"`
	End    int    `json:"end"`
	MinT   int    `json:"min_t"`
	Init   string `json:"init"`
	Window string `json:"window"`
}

func runGolden(t *testing.T, c goldenCase, monitor string) goldenResult {
	t.Helper()
	ms, err := check.ParseMonitorSpec(monitor)
	if err != nil {
		t.Fatal(err)
	}
	m, err := check.NewMonitor(ms, c.obj, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	for _, e := range c.events(t) {
		if _, err := m.Feed(e); err != nil {
			t.Fatal(err)
		}
		if m.Violation() != nil {
			break
		}
	}
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	res := goldenResult{
		Checks: m.Checks(), Skipped: m.Sampling().Skipped, Escalations: m.Sampling().Escalations,
		Samples: append([]check.Sample{}, m.Samples()...),
	}
	if v := m.Violation(); v != nil {
		res.Violation = &goldenWindow{
			Start: v.Start, End: v.End, MinT: v.MinT,
			Init: fmt.Sprint(v.Object.Init), Window: v.Window.String(),
		}
	}
	return res
}

// TestMonitorGolden pins what every window monitor reports — samples, check
// and skip counters, the violation window — on four fixed event streams to
// testdata/monitor_golden.json, which the commit before the probe-first MinT
// and the prepared window produced (go test -run MonitorGolden -update).
func TestMonitorGolden(t *testing.T) {
	path := filepath.Join("testdata", "monitor_golden.json")
	got := make(map[string]goldenResult)
	for _, c := range goldenCases {
		for _, mon := range goldenMonitors {
			got[c.name+"/"+mon] = runGolden(t, c, mon)
		}
	}
	out, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) == string(want) {
		return
	}
	var wantMap map[string]goldenResult
	if err := json.Unmarshal(want, &wantMap); err != nil {
		t.Fatal(err)
	}
	for key := range got {
		g, _ := json.Marshal(got[key])
		w, _ := json.Marshal(wantMap[key])
		if string(g) != string(w) {
			t.Errorf("%s:\n got %s\nwant %s", key, g, w)
		}
	}
	t.Fatal("monitor results differ from testdata/monitor_golden.json")
}
