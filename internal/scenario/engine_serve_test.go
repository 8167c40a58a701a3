package scenario

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/wal"
)

// One declarative scenario stands up a real TCP server, drives a retrying
// fleet through a named network fault preset, and still answers ok with
// the exactly-once ledger clean — the serve engine's headline.
func TestServeEngineFlakyNet(t *testing.T) {
	s := Scenario{
		Impl:      "atomic-fi",
		Procs:     4,
		Ops:       150,
		Seed:      7,
		NetFaults: "flaky-net",
	}
	rep, err := Serve{}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verdict = %s (%s), want ok", rep.Verdict, rep.Detail)
	}
	if rep.Scenario.NetFaults != "drop:0@40,drop:1@80,slow:2:200,partition:120+40" {
		t.Fatalf("scenario echo net-faults = %q (preset not canonicalized)", rep.Scenario.NetFaults)
	}
	if rep.Net == nil {
		t.Fatal("serve report carries no net section")
	}
	if rep.Net.Lost != 0 || rep.Net.Duplicated != 0 {
		t.Fatalf("exactly-once ledger dirty: %+v", rep.Net)
	}
	if rep.Net.Reconnects == 0 {
		t.Fatal("flaky-net run saw no reconnects — faults did not fire")
	}
	if rep.Perf.Events != 2*4*150 {
		t.Fatalf("events = %d, want %d (resumed ops must not re-record)", rep.Perf.Events, 2*4*150)
	}
	if rep.Checks == nil || rep.Checks.ReplayIdentical == nil || !*rep.Checks.ReplayIdentical {
		t.Fatalf("faulted serve history did not verify: %+v", rep.Checks)
	}
}

// The fault-free serve cell is deterministic where it matters: the same
// scenario twice yields byte-identical canonical reports (wall-clock and
// reconnect noise zeroed, everything contractual kept).
func TestServeEngineCanonicalStable(t *testing.T) {
	s := Scenario{Impl: "atomic-fi", Procs: 3, Ops: 60, Seed: 11}
	var first []byte
	for i := 0; i < 2; i++ {
		rep, err := Serve{}.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("run %d: verdict %s (%s)", i, rep.Verdict, rep.Detail)
		}
		var buf bytes.Buffer
		if err := rep.Canonical().EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = append([]byte(nil), buf.Bytes()...)
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("canonical serve reports diverge:\n%s\nvs\n%s", first, buf.Bytes())
		}
	}
}

// A serve scenario with a WAL persists the merged stream; the recovered
// log matches the report, and the resolved sync policy lands in the echo.
func TestServeEngineWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.wal")
	s := Scenario{
		Impl:    "atomic-fi",
		Procs:   3,
		Ops:     80,
		Seed:    5,
		WAL:     path,
		WALSync: "interval:8",
	}
	rep, err := Serve{}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verdict = %s (%s)", rep.Verdict, rep.Detail)
	}
	if rep.Scenario.WALSync != "interval:8" {
		t.Fatalf("scenario echo wal-sync = %q", rep.Scenario.WALSync)
	}
	rec, err := wal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn || rec.Frames != rep.Perf.Events {
		t.Fatalf("recovered %d frames (torn=%v), report has %d events", rec.Frames, rec.Torn, rep.Perf.Events)
	}
}

// Regime features stay in their regimes, loudly.
func TestServeEngineRejections(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
		want string
	}{
		{"process faults", Scenario{Faults: "chaos"}, "live-engine feature"},
		{"serial driver", Scenario{Serial: true}, "live-engine feature"},
		{"fuzz", Scenario{FuzzRuns: 3}, "live-engine feature"},
	}
	for _, c := range cases {
		if _, err := (Serve{}).Run(c.s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("serve accepted %s (err %v)", c.name, err)
		}
	}
	// And the other engines refuse the network fault plane.
	nf := Scenario{Impl: "cas-counter", NetFaults: "flaky-net"}
	for _, e := range Engines() {
		if e.Name() == "serve" {
			continue
		}
		if _, err := e.Run(nf); err == nil || !strings.Contains(err.Error(), "serve-engine feature") {
			t.Errorf("engine %s accepted net-faults (err %v)", e.Name(), err)
		}
	}
}

// Explore and Sim refuse every option coordinate away from its default,
// naming the axis and the engine, and accept each at its default.
func TestLiveOnlyRejections(t *testing.T) {
	cases := []struct {
		s    Scenario
		want string
	}{
		{Scenario{Faults: "chaos"}, "faults"},
		{Scenario{NetFaults: "flaky-net"}, "net-faults"},
		{Scenario{WALSync: "never"}, "wal-sync"},
		{Scenario{Monitor: "sample:2"}, "monitor"},
		{Scenario{WAL: "x.wal"}, "WAL commit logging"},
		{Scenario{Serial: true}, "serial driver"},
	}
	defaults := Scenario{Faults: "none", NetFaults: "none", WALSync: "none", Monitor: "full"}
	for _, engine := range []string{"explore", "sim"} {
		for _, c := range cases {
			err := c.s.rejectLiveOnly(engine)
			if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), `"`+engine+`"`) {
				t.Errorf("%s accepted %s (err %v)", engine, c.want, err)
			}
		}
		if err := defaults.rejectLiveOnly(engine); err != nil {
			t.Errorf("%s refused the defaults: %v", engine, err)
		}
	}
}

// Net-fault and WAL-sync coordinates enter the cell identity — and
// canonicalize, so a preset and its grammar spelling share a cell.
func TestServeEngineCellID(t *testing.T) {
	a := Scenario{NetFaults: "partition-heal", WAL: "/tmp/x.wal", WALSync: ""}
	b := Scenario{NetFaults: "partition:60+40", WAL: "/tmp/y.wal", WALSync: "never"}
	if a.CellID("serve") != b.CellID("serve") {
		t.Fatalf("equivalent serve cells diverge:\n%s\n%s", a.CellID("serve"), b.CellID("serve"))
	}
	id := a.CellID("serve")
	for _, want := range []string{"engine=serve", "netfaults=partition:60+40", "walsync=never"} {
		if !strings.Contains(id, want) {
			t.Fatalf("cell id %q missing %q", id, want)
		}
	}
	plain := Scenario{}.CellID("serve")
	if strings.Contains(plain, "netfaults") || strings.Contains(plain, "walsync") {
		t.Fatalf("fault-free cell id %q carries fault coordinates", plain)
	}
}
