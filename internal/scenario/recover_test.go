package scenario

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestFaultedCellID pins the faults coordinate: inserted after policy only
// when a fault spec is injected, canonicalized across spellings, absent
// from unfaulted identities (so pre-existing baselines keep their IDs).
func TestFaultedCellID(t *testing.T) {
	plain := Scenario{Impl: "atomic-fi", Procs: 2, Ops: 4}
	if id := plain.CellID("live"); strings.Contains(id, "faults=") {
		t.Errorf("unfaulted cell id carries a faults coordinate: %q", id)
	}
	faulted := plain
	faulted.Faults = "jitter:2,stall:0@4+2"
	want := "engine=live impl=atomic-fi workload=default policy=immediate faults=stall:0@4+2,jitter:2 procs=2 ops=4 tol=0 seed=0"
	if got := faulted.CellID("live"); got != want {
		t.Errorf("faulted cell id = %q, want %q", got, want)
	}
	// "none" and "" name the same cell; presets canonicalize to grammar.
	none := plain
	none.Faults = "none"
	if none.CellID("live") != plain.CellID("live") {
		t.Error(`faults "none" and "" split the cell identity`)
	}
	preset := plain
	preset.Faults = "jitter-light"
	if id := preset.CellID("live"); !strings.Contains(id, "faults=jitter:3") {
		t.Errorf("preset did not canonicalize in the cell id: %q", id)
	}
}

// TestEnginesRejectLiveOnly pins that explore and sim refuse faulted,
// WAL-logging or serial scenarios instead of silently ignoring them.
func TestEnginesRejectLiveOnly(t *testing.T) {
	for _, eng := range []string{"explore", "sim"} {
		for name, s := range map[string]Scenario{
			"faults": {Faults: "jitter:2"},
			"wal":    {WAL: filepath.Join(t.TempDir(), "x.wal")},
			"serial": {Serial: true},
		} {
			if _, err := Run(eng, s); err == nil {
				t.Errorf("%s accepted a %s scenario", eng, name)
			}
		}
		// "none" passes through untouched.
		if _, err := Run(eng, Scenario{Faults: "none", Ops: 1, Procs: 2, Budget: Budget{Depth: 8}}); err != nil {
			t.Errorf(`%s rejected faults "none": %v`, eng, err)
		}
	}
}

// TestStressCrashReport pins the live engine's crash surface: a WAL-logged
// serial run that crashes at commit K reports ok with the crash detail and
// skips replay verification of the cut history.
func TestStressCrashReport(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "run.wal")
	s := Scenario{
		Impl: "el-fi", Procs: 2, Ops: 200, Seed: 5, Tolerance: -1,
		Policy: "window:8", Serial: true,
		WAL: walPath, WALSync: "interval:16",
		Faults: "crash:300",
	}
	rep, err := Run("live", s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || !strings.Contains(rep.Detail, "crashed at commit 300") {
		t.Fatalf("crash report: verdict=%s detail=%q", rep.Verdict, rep.Detail)
	}
	if rep.Checks != nil {
		t.Error("crashed run must not claim replay verification")
	}
	if rep.Scenario.Faults != "crash:300" || !rep.Scenario.Serial {
		t.Errorf("scenario echo lost the fault plane: %+v", rep.Scenario)
	}

	// Recover the log and continue; the stitched history must stabilize.
	rec, err := Recover(walPath, Scenario{Ops: 100, Serial: true, Tolerance: -1, Stride: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.OK() {
		t.Fatalf("recover verdict=%s detail=%q", rec.Verdict, rec.Detail)
	}
	ri := rec.Recovery
	if ri == nil {
		t.Fatal("recover report has no recovery section")
	}
	if ri.Torn || ri.RecoveredCommits != 300 || ri.ResumedSeq != 300 {
		t.Errorf("recovery = %+v, want 300 clean commits", ri)
	}
	if ri.ContinuedOps != 200 || ri.StitchedEvents != rec.Perf.Events {
		t.Errorf("continuation = %+v (perf %+v)", ri, rec.Perf)
	}
	if rec.Trend == nil || rec.Trend.Trend != "stabilized" {
		t.Errorf("stitched trend = %+v, want stabilized", rec.Trend)
	}
	// Header defaults applied: impl, workload, policy from the log; the
	// continuation seed is the header seed + 1.
	inf := rec.Scenario
	if inf.Impl != "el-fi" || inf.Policy != "window:8" || inf.Seed != 6 || inf.Procs != 2 {
		t.Errorf("continuation defaults not taken from the header: %+v", inf)
	}
}

// TestRecoverChainsThroughOutWAL pins the self-contained re-log: a
// continuation that writes its own WAL (recovered prefix copied in front)
// is itself recoverable.
func TestRecoverChainsThroughOutWAL(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "a.wal")
	second := filepath.Join(dir, "b.wal")
	s := Scenario{
		Impl: "atomic-fi", Procs: 2, Ops: 100, Seed: 3,
		Serial: true, WAL: first, Faults: "crash:120",
	}
	if _, err := Run("live", s); err != nil {
		t.Fatal(err)
	}
	rec1, err := Recover(first, Scenario{Ops: 50, Serial: true, WAL: second})
	if err != nil {
		t.Fatal(err)
	}
	if !rec1.OK() || rec1.Recovery.RecoveredCommits != 120 {
		t.Fatalf("first recovery: %s (%+v)", rec1.Verdict, rec1.Recovery)
	}
	rec2, err := Recover(second, Scenario{Ops: 25, Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	// The second log holds the full stitched run: 120 crash-cut commits
	// plus the 2x50 continuation ops.
	if got := rec2.Recovery.RecoveredCommits; got != 220 {
		t.Errorf("chained recovery commits = %d, want 220", got)
	}
	if !rec2.OK() {
		t.Errorf("chained recovery verdict = %s (%s)", rec2.Verdict, rec2.Detail)
	}
}

// TestRecoverHonoursMonitorSpec pins that the continuation is checked by
// the monitor the scenario names — the header, the trend and the verdict
// detail agree in every row. (Recover once read only a NoMonitor switch:
// under "none" it echoed monitor=none above a trend the full monitor
// printed, and sample:N checked every window.)
func TestRecoverHonoursMonitorSpec(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "run.wal")
	if _, err := Run("live", Scenario{
		Impl: "atomic-fi", Procs: 2, Ops: 400, Seed: 3, Serial: true,
		WAL: walPath, Faults: "crash:500", Stride: 64,
	}); err != nil {
		t.Fatal(err)
	}
	fullWindows := 0
	for _, c := range []struct {
		monitor, header string
		trend           bool
	}{
		{"", "", true},
		{"sample:2", "sample:2", true},
		{"none", "none", false},
	} {
		rep, err := Recover(walPath, Scenario{Ops: 200, Serial: true, Stride: 64, Monitor: c.monitor})
		if err != nil {
			t.Fatalf("monitor %q: %v", c.monitor, err)
		}
		if !rep.OK() || rep.Recovery == nil || rep.Recovery.RecoveredCommits != 500 {
			t.Fatalf("monitor %q: verdict=%s recovery=%+v", c.monitor, rep.Verdict, rep.Recovery)
		}
		if rep.Scenario.Monitor != c.header {
			t.Errorf("monitor %q: header says %q, want %q", c.monitor, rep.Scenario.Monitor, c.header)
		}
		if (rep.Trend != nil) != c.trend {
			t.Errorf("monitor %q: trend = %+v, want one: %v", c.monitor, rep.Trend, c.trend)
		}
		if checked := strings.Contains(rep.Detail, "within tolerance"); checked != c.trend {
			t.Errorf("monitor %q: detail %q claims a check: %v, want %v", c.monitor, rep.Detail, checked, c.trend)
		}
		switch c.monitor {
		case "":
			fullWindows = rep.Trend.Windows
		case "sample:2":
			if rep.Trend.Windows >= fullWindows {
				t.Errorf("sample:2 measured %d windows, full %d: the continuation ran the full monitor", rep.Trend.Windows, fullWindows)
			}
		}
	}
}
