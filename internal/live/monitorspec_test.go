package live

import (
	"testing"

	"github.com/elin-go/elin/internal/check"
)

// serialRun executes one deterministic serial run under the given monitor
// spec; the history is a pure function of (object, clients, ops, seed), so
// every spec sees the identical event sequence.
func serialRun(t *testing.T, obj Object, spec check.MonitorSpec, maxT int) *Result {
	t.Helper()
	res, err := Run(Config{
		Object:      obj,
		Clients:     4,
		Ops:         400,
		Seed:        11,
		Serial:      true,
		Monitor:     check.IncrementalConfig{Stride: 64, MaxT: maxT},
		MonitorSpec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// MonitorSpec none is record-only: the run records and merges with
// no verdict, and the junk counter runs to completion.
func TestSerialRunMonitorNone(t *testing.T) {
	res := serialRun(t, NewJunkFetchInc("C", 100), check.MonitorSpec{Kind: check.MonitorNone}, 2)
	if res.Violation != nil || res.Stopped {
		t.Fatalf("record-only run stopped: %+v", res.Violation)
	}
	if res.Ops != 4*400 {
		t.Fatalf("ops = %d, want %d", res.Ops, 4*400)
	}
	if len(res.Verdict.Samples) != 0 {
		t.Fatalf("record-only run produced %d samples", len(res.Verdict.Samples))
	}
}
