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

// On deterministic -serial runs the pooled monitor is pinned to the
// inline one: same verdict, trend, final MinT — and on the junk
// counter, the same violation window.
func TestSerialRunShardedMatchesFull(t *testing.T) {
	cases := []struct {
		name    string
		mk      func() Object
		violate bool
	}{
		{"clean-counter", func() Object { return NewAtomicFetchInc("C", 0) }, false},
		{"junk-sticky", func() Object { return NewJunkFetchInc("C", 300) }, true},
	}
	for _, c := range cases {
		ref := serialRun(t, c.mk(), check.MonitorSpec{Kind: check.MonitorFull}, 2)
		if c.violate && ref.Violation == nil {
			t.Fatalf("%s: reference run missed the junk counter", c.name)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			res := serialRun(t, c.mk(), check.MonitorSpec{Kind: check.MonitorShardWindow, N: workers}, 2)
			if res.Verdict.Trend != ref.Verdict.Trend || res.Verdict.FinalMinT != ref.Verdict.FinalMinT {
				t.Errorf("%s shard:%d: verdict trend=%s final=%d, reference trend=%s final=%d",
					c.name, workers, res.Verdict.Trend, res.Verdict.FinalMinT,
					ref.Verdict.Trend, ref.Verdict.FinalMinT)
			}
			if len(res.Verdict.Samples) != len(ref.Verdict.Samples) {
				t.Errorf("%s shard:%d: %d samples, reference %d",
					c.name, workers, len(res.Verdict.Samples), len(ref.Verdict.Samples))
			}
			switch {
			case (res.Violation == nil) != (ref.Violation == nil):
				t.Errorf("%s shard:%d: violation = %v, reference %v",
					c.name, workers, res.Violation, ref.Violation)
			case ref.Violation != nil:
				rv, sv := ref.Violation, res.Violation
				if rv.Start != sv.Start || rv.End != sv.End || rv.MinT != sv.MinT {
					t.Errorf("%s shard:%d: violation [%d,%d) minT=%d, reference [%d,%d) minT=%d",
						c.name, workers, sv.Start, sv.End, sv.MinT, rv.Start, rv.End, rv.MinT)
				}
				if rv.Window.String() != sv.Window.String() {
					t.Errorf("%s shard:%d: violation window text diverged", c.name, workers)
				}
			}
		}
	}
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
