package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("elin %v: %v\noutput:\n%s", args, err, buf.String())
	}
	return buf.String()
}

func TestDispatchErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("empty invocation accepted")
	}
	if err := run([]string{"nosuch"}, &buf); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"help"}, &buf); err != nil {
		t.Errorf("help: %v", err)
	}
	if !strings.Contains(buf.String(), "explore") {
		t.Errorf("usage output: %q", buf.String())
	}
}

// ----------------------------------------------------------------------------
// elin explore (covers the retired elexplore).

func TestExploreLin(t *testing.T) {
	out := runOut(t, "explore", "-impl", "cas-counter", "-procs", "2", "-ops", "1", "-depth", "12")
	if !strings.Contains(out, "verdict: ok") || !strings.Contains(out, "explored: nodes=113 leaves=28 truncated=false") {
		t.Errorf("output:\n%s", out)
	}
}

func TestExploreLinViolation(t *testing.T) {
	out := runOut(t, "explore", "-impl", "sloppy-counter", "-procs", "2", "-ops", "1", "-depth", "10")
	if !strings.Contains(out, "verdict: violation") || !strings.Contains(out, "witness history:") {
		t.Errorf("output:\n%s", out)
	}
}

func TestExploreValency(t *testing.T) {
	out := runOut(t, "explore", "-impl", "reg-consensus", "-procs", "2", "-ops", "1",
		"-mode", "valency", "-depth", "18", "-quiet")
	if !strings.Contains(out, "valency: root=[1 2]") || !strings.Contains(out, "agreement-violations=66") {
		t.Errorf("output:\n%s", out)
	}
}

func TestExploreStable(t *testing.T) {
	out := runOut(t, "explore", "-impl", "warmup-counter:2", "-procs", "2", "-ops", "3",
		"-mode", "stable", "-depth", "8", "-verify-depth", "16")
	if !strings.Contains(out, "verdict: ok") || !strings.Contains(out, "stable: depth=") {
		t.Errorf("output:\n%s", out)
	}
}

func TestExploreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"explore", "-impl", "nosuch"},
		{"explore", "-mode", "nosuch"},
		{"explore", "-policy", "nosuch"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// ----------------------------------------------------------------------------
// elin sim (covers the retired elsim).

// TestSimGoldenRun pins the complete output of a deterministic run —
// scheduler, chooser and policy are pure functions of the seed, so any
// drift here is a real behaviour change. The history and derived numbers
// match the retired elsim golden (steps=18, MinT=3).
func TestSimGoldenRun(t *testing.T) {
	out := runOut(t, "sim", "-impl", "warmup-counter:2", "-procs", "2", "-ops", "2",
		"-sched", "rr", "-chooser", "stale", "-policy", "window:2", "-seed", "5", "-tolerance", "-1", "-dump")
	want := `engine=sim impl=warmup-counter:2 workload=default policy=window:2 procs=2 ops=2 tolerance=-1 seed=5
verdict: ok (observe-only (negative tolerance))
checks: linearizable=false weakly-consistent=true MinT=3
trend: stabilized final-MinT=3 slope=0.0000 windows=4
run: steps=18 timedout=false ops=4 events=8
  0  inv p0 warmup-counter fetchinc
  1  inv p1 warmup-counter fetchinc
  2  res p0 warmup-counter 0
  3  inv p0 warmup-counter fetchinc
  4  res p1 warmup-counter 0
  5  inv p1 warmup-counter fetchinc
  6  res p0 warmup-counter 2
  7  res p1 warmup-counter 3
`
	if out != want {
		t.Errorf("golden output drift:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestSimMaxSteps(t *testing.T) {
	out := runOut(t, "sim", "-impl", "cas-counter", "-procs", "2", "-ops", "50",
		"-max-steps", "10", "-tolerance", "-1")
	if !strings.Contains(out, "timedout=true") {
		t.Errorf("output:\n%s", out)
	}
}

func TestSimEmitJSONPipesIntoCheck(t *testing.T) {
	hist := runOut(t, "sim", "-impl", "cas-counter", "-procs", "2", "-ops", "1", "-emit-json")
	if !strings.HasPrefix(strings.TrimSpace(hist), "[{") {
		t.Fatalf("emit-json output: %q", hist)
	}
	path := filepath.Join(t.TempDir(), "h.json")
	if err := os.WriteFile(path, []byte(hist), 0o600); err != nil {
		t.Fatal(err)
	}
	out := runOut(t, "check", "-json", "-obj", "cas-counter=fetchinc", "-mode", "lin", path)
	if !strings.Contains(out, "linearizable: true") {
		t.Errorf("check output: %q", out)
	}
}

func TestSimErrors(t *testing.T) {
	for _, args := range [][]string{
		{"sim", "-impl", "nosuch"},
		{"sim", "-sched", "nosuch"},
		{"sim", "-chooser", "nosuch"},
		{"sim", "-policy", "nosuch"},
		{"sim", "-impl", "warmup-counter:xx"},
		{"sim", "-workload", "nosuch"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// ----------------------------------------------------------------------------
// elin check (covers the retired elcheck).

const dupHistory = `
inv p0 X fetchinc
inv p1 X fetchinc
res p0 X 0
res p1 X 0
`

func writeHistory(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "h.txt")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckModes(t *testing.T) {
	path := writeHistory(t, dupHistory)
	reads := writeHistory(t, "inv p0 X read\nres p0 X 0\ninv p1 X read\nres p1 X 0\n")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"check", "-obj", "X=fetchinc", "-mode", "lin", path}, "linearizable: false"},
		{[]string{"check", "-obj", "X=fetchinc", "-mode", "weak", path}, "weakly consistent: true"},
		{[]string{"check", "-obj", "X=fetchinc", "-mode", "mint", path}, "MinT: 3"},
		{[]string{"check", "-obj", "X=fetchinc", "-mode", "tlin", "-t", "3", path}, "3-linearizable: true"},
		{[]string{"check", "-obj", "X=fetchinc", "-mode", "tlin", "-t", "0", path}, "0-linearizable: false"},
		{[]string{"check", "-obj", "X=fetchinc", "-mode", "track", "-stride", "2", path}, "trend:"},
		{[]string{"check", "-obj", "X=fetchinc", "-mode", "mintlocal", path}, "t_X = 3"},
		{[]string{"check", "-obj", "X=fetchinc", "-mode", "mint", "-witness", path}, "witness 3-linearization"},
		// Two completed reads: fetch&inc cannot apply them, so no t works.
		{[]string{"check", "-obj", "X=fetchinc", "-mode", "track", reads}, "final MinT: none"},
		{[]string{"check", "-obj", "X=fetchinc", "-mode", "mintlocal", reads}, "t_X = none (of 4 events in H|X)\nglobal MinT <= none"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := run(tc.args, &buf); err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%v output %q, want %q", tc.args, buf.String(), tc.want)
		}
	}
}

// TestCheckExtremeProcessIDs: a process id is a name, not a size. The JSON
// history used to panic in history.Operations (index -1) and the text one
// grew a table by append until the process died.
func TestCheckExtremeProcessIDs(t *testing.T) {
	dir := t.TempDir()
	neg := filepath.Join(dir, "neg.json")
	if err := os.WriteFile(neg, []byte(`[{"kind":"inv","proc":-1,"obj":"X","op":"read"},{"kind":"res","proc":-1,"obj":"X","resp":0}]`), 0o600); err != nil {
		t.Fatal(err)
	}
	big := writeHistory(t, "inv p4000000000 X read\nres p4000000000 X 0\n")
	for _, args := range [][]string{
		{"check", "-json", "-obj", "X=register", neg},
		{"check", "-obj", "X=register", big},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out := runOut(t, args...)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if !strings.Contains(out, "linearizable: true") {
			t.Errorf("%v output %q", args, out)
		}
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb >= 100 || took >= time.Second {
			t.Errorf("%v took %v and allocated %d MB", args, took, mb)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	path := writeHistory(t, dupHistory)
	for _, args := range [][]string{
		{"check", path},                     // no -obj
		{"check", "-obj", "X=nosuch", path}, // unknown type
		{"check", "-obj", "X", path},        // malformed spec
		{"check", "-obj", "X=fetchinc", "-mode", "nosuch", path},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// ----------------------------------------------------------------------------
// elin stress (covers the retired elstress).

func TestStressCleanRun(t *testing.T) {
	out := runOut(t, "stress", "-impl", "atomic-fi", "-procs", "4", "-ops", "2000",
		"-stride", "512", "-seed", "1")
	if !strings.Contains(out, "verdict: ok") || !strings.Contains(out, "replay-identical=true") {
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "throughput=") {
		t.Errorf("no perf line:\n%s", out)
	}
}

func TestStressJunkViolation(t *testing.T) {
	out := runOut(t, "stress", "-impl", "junk-fi:40", "-procs", "2", "-ops", "500",
		"-stride", "64", "-seed", "1", "-quiet")
	if !strings.Contains(out, "verdict: violation") || !strings.Contains(out, "sim replay diverged=true") {
		t.Errorf("output:\n%s", out)
	}
	if strings.Contains(out, "witness history:") {
		t.Errorf("quiet run dumped the witness:\n%s", out)
	}
}

func TestStressFuzz(t *testing.T) {
	out := runOut(t, "stress", "-impl", "junk-fi:20", "-procs", "2", "-ops", "400",
		"-stride", "64", "-seed", "1", "-fuzz", "3", "-quiet")
	if !strings.Contains(out, "fuzz: runs=") || !strings.Contains(out, "found=true") {
		t.Errorf("output:\n%s", out)
	}
}

func TestStressImplName(t *testing.T) {
	// A registry implementation name runs live through the serialized
	// step-machine adapter — the scenario vocabulary is engine-independent.
	out := runOut(t, "stress", "-impl", "cas-counter", "-procs", "2", "-ops", "200",
		"-stride", "512", "-seed", "1")
	if !strings.Contains(out, "verdict: ok") || !strings.Contains(out, "impl=cas-counter") {
		t.Errorf("output:\n%s", out)
	}
}

// ----------------------------------------------------------------------------
// -json: one Report schema on every engine.

func TestJSONReportSchemaEverywhere(t *testing.T) {
	cases := [][]string{
		{"explore", "-impl", "cas-counter", "-procs", "2", "-ops", "1", "-depth", "12", "-json"},
		{"sim", "-impl", "cas-counter", "-procs", "2", "-ops", "1", "-json"},
		{"stress", "-impl", "atomic-fi", "-procs", "2", "-ops", "100", "-seed", "1", "-json"},
	}
	for _, args := range cases {
		out := runOut(t, args...)
		var rep struct {
			Schema   string `json:"schema"`
			Engine   string `json:"engine"`
			Verdict  string `json:"verdict"`
			Scenario struct {
				Impl string `json:"impl"`
			} `json:"scenario"`
		}
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Errorf("%v: bad JSON: %v\n%s", args, err, out)
			continue
		}
		if rep.Schema != "elin/report/v1" || rep.Verdict != "ok" {
			t.Errorf("%v: report = %+v", args, rep)
		}
		if rep.Engine != args[0] && !(args[0] == "stress" && rep.Engine == "live") {
			t.Errorf("%v: engine = %q", args, rep.Engine)
		}
	}
}

// ----------------------------------------------------------------------------
// elin bench (covers the retired elbench).

func TestBenchListAndRun(t *testing.T) {
	out := runOut(t, "bench", "-list")
	if !strings.Contains(out, "E1") || !strings.Contains(out, "E17") {
		t.Errorf("list output: %q", out)
	}
	out = runOut(t, "bench", "-run", "E4")
	if !strings.Contains(out, "E4 — Section 3.2") {
		t.Errorf("run output: %q", out)
	}
	var buf bytes.Buffer
	if err := run([]string{"bench", "-run", "E99"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestBenchJSONTrajectoryFormat(t *testing.T) {
	out := runOut(t, "bench", "-run", "E4,E1", "-json", "-workers", "1")
	var recs []struct {
		ID         string `json:"id"`
		Artifact   string `json:"artifact"`
		Rows       int    `json:"rows"`
		NS         int64  `json:"ns"`
		Workers    int    `json:"workers"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	}
	if err := json.Unmarshal([]byte(out), &recs); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(recs) != 2 || recs[0].ID != "E4" || recs[1].ID != "E1" {
		t.Fatalf("records: %+v", recs)
	}
	for _, r := range recs {
		if r.Rows == 0 || r.NS <= 0 || r.Workers != 1 || r.GOMAXPROCS <= 0 || r.Artifact == "" {
			t.Errorf("record %+v", r)
		}
	}
}

// ----------------------------------------------------------------------------
// elin list.

func TestList(t *testing.T) {
	out := runOut(t, "list")
	for _, want := range []string{"impls:", "cas-counter", "engines:", "live", "workloads:", "uniform:OP", "experiments:", "E17", "atomic-fi[:init]"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output misses %q:\n%s", want, out)
		}
	}
	out = runOut(t, "list", "-section", "engines")
	if strings.Contains(out, "impls") || !strings.Contains(out, "explore") {
		t.Errorf("section output:\n%s", out)
	}
	var buf bytes.Buffer
	if err := run([]string{"list", "-section", "nosuch"}, &buf); err == nil {
		t.Error("unknown section accepted")
	}
}

func TestSimNoCheckAndEmitJSONSkipCheckers(t *testing.T) {
	out := runOut(t, "sim", "-impl", "warmup-counter:2", "-procs", "2", "-ops", "2",
		"-policy", "window:2", "-seed", "5", "-nocheck")
	if !strings.Contains(out, "checks skipped") || strings.Contains(out, "MinT") {
		t.Errorf("nocheck output:\n%s", out)
	}
	// -emit-json implies -nocheck and emits only the event array.
	hist := runOut(t, "sim", "-impl", "warmup-counter:2", "-procs", "2", "-ops", "2",
		"-policy", "window:2", "-seed", "5", "-emit-json")
	if !strings.HasPrefix(strings.TrimSpace(hist), "[{") || strings.Contains(hist, "verdict") {
		t.Errorf("emit-json output: %q", hist)
	}
}

func TestStressDefaultSeedIsOne(t *testing.T) {
	out := runOut(t, "stress", "-impl", "atomic-fi", "-procs", "2", "-ops", "100", "-json")
	if !strings.Contains(out, `"seed": 1`) {
		t.Errorf("stress default seed drifted:\n%s", out)
	}
}
