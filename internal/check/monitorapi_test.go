package check

import (
	"testing"

	"github.com/elin-go/elin/internal/spec"
)

func TestParseMonitorSpec(t *testing.T) {
	good := []struct {
		in        string
		want      MonitorSpec
		canonical string
	}{
		{"", MonitorSpec{Kind: MonitorFull}, "full"},
		{"full", MonitorSpec{Kind: MonitorFull}, "full"},
		{"sample:2", MonitorSpec{Kind: MonitorSample, N: 2}, "sample:2"},
		{"sample:64", MonitorSpec{Kind: MonitorSample, N: 64}, "sample:64"},
		{"none", MonitorSpec{Kind: MonitorNone}, "none"},
	}
	for _, c := range good {
		ms, err := ParseMonitorSpec(c.in)
		if err != nil {
			t.Errorf("ParseMonitorSpec(%q): %v", c.in, err)
			continue
		}
		if ms != c.want {
			t.Errorf("ParseMonitorSpec(%q) = %+v, want %+v", c.in, ms, c.want)
		}
		if ms.String() != c.canonical {
			t.Errorf("ParseMonitorSpec(%q).String() = %q, want %q", c.in, ms.String(), c.canonical)
		}
		// The canonical spelling parses back to the same spec.
		if back, err := ParseMonitorSpec(ms.String()); err != nil || back != ms {
			t.Errorf("round trip of %q: %+v, %v", ms.String(), back, err)
		}
	}
	for _, in := range []string{"sample:1", "sample:0", "sample:x", "shard:1", "shard:2", "shard:8", "shard:0", "shard:-2", "shard:", "shard:key", "bogus", "full:2", "sample"} {
		if ms, err := ParseMonitorSpec(in); err == nil {
			t.Errorf("ParseMonitorSpec(%q) accepted as %+v", in, ms)
		}
	}
}

func TestNewMonitorKinds(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	cfg := IncrementalConfig{Stride: 16}
	cases := []struct {
		ms    MonitorSpec
		every int
		name  string
	}{
		{MonitorSpec{Kind: MonitorFull}, 1, "full"},
		{MonitorSpec{Kind: MonitorSample, N: 4}, 4, "sample:4"},
		// The deprecated pool kind is the full monitor: the benchmark
		// module's monitor probe still builds it.
		{MonitorSpec{Kind: MonitorShardWindow, N: 2}, 1, "full"},
	}
	for _, c := range cases {
		m, err := NewMonitor(c.ms, obj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Sampling().Every != c.every || c.ms.String() != c.name {
			t.Errorf("NewMonitor(%+v): sample every %d, spec %q; want %d, %q", c.ms, m.Sampling().Every, c.ms, c.every, c.name)
		}
		m.Abort()
	}
	for _, ms := range []MonitorSpec{{Kind: MonitorSample, N: 1}, {Kind: MonitorNone}} {
		if _, err := NewMonitor(ms, obj, cfg); err == nil {
			t.Errorf("NewMonitor(%+v) built a monitor", ms)
		}
	}
}

// The monitor's lifecycle: Abort mid-stream drops the tail check and is
// idempotent alongside Finish; Abort after Finish changes nothing; Feed after
// either is an error; and once frozen on a violation, every Finish and Feed
// returns that violation.
func TestIncrementalLifecycle(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	clean := serialCounter(t, 30)
	dup := serialCounter(t, 20)
	mustDo(t, dup.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), 20))
	mustDo(t, dup.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), 20))
	mk := func() *Incremental { return NewIncremental(obj, IncrementalConfig{Stride: 8}) }
	feedAfter := func(m *Incremental, when string) {
		t.Helper()
		if v, err := m.Feed(clean.Event(0)); v != nil || err == nil {
			t.Fatalf("Feed after %s = %v, %v; want an error", when, v, err)
		}
	}

	m := mk()
	for i := 0; i < 20; i++ {
		if _, err := m.Feed(clean.Event(i)); err != nil {
			t.Fatal(err)
		}
	}
	m.Abort()
	m.Abort()
	if v, err := m.Finish(); v != nil || err != nil {
		t.Fatalf("Finish after Abort = %v, %v", v, err)
	}
	if len(m.Samples()) > 2 {
		t.Fatalf("aborted monitor measured its tail: %+v", m.Samples())
	}
	feedAfter(m, "Abort")

	m = mk()
	for i := 0; i < clean.Len(); i++ {
		if _, err := m.Feed(clean.Event(i)); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := m.Finish(); v != nil || err != nil {
		t.Fatalf("Finish = %v, %v", v, err)
	}
	samples := len(m.Samples())
	m.Abort()
	if v, err := m.Finish(); v != nil || err != nil || len(m.Samples()) != samples {
		t.Fatalf("second Finish = %v, %v, %d samples (had %d)", v, err, len(m.Samples()), samples)
	}
	feedAfter(m, "Finish")

	m = mk()
	for i := 0; i < dup.Len(); i++ {
		if v, _ := m.Feed(dup.Event(i)); v != nil {
			break
		}
	}
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	v := m.Violation()
	if v == nil {
		t.Fatal("duplicate response not caught")
	}
	for i := 0; i < 2; i++ {
		if again, err := m.Finish(); again != v || err != nil {
			t.Fatalf("Finish %d after the violation = %v, %v; want the same violation", i, again, err)
		}
	}
	if again, err := m.Feed(clean.Event(0)); again != v || err != nil {
		t.Fatalf("frozen Feed = %v, %v", again, err)
	}
}
