package live

import (
	"testing"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

func newHist(t *testing.T) *history.History {
	t.Helper()
	return history.New()
}

func TestRunAtomicCounterClean(t *testing.T) {
	res, err := Run(Config{
		Object:  NewAtomicFetchInc("C", 0),
		Clients: 8,
		Ops:     1500,
		Seed:    7,
		Monitor: check.IncrementalConfig{Stride: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("clean counter flagged: %v", res.Violation)
	}
	if res.Ops != 8*1500 {
		t.Fatalf("ops = %d, want %d", res.Ops, 8*1500)
	}
	if res.History.Len() != 2*res.Ops {
		t.Fatalf("history %d events, want %d", res.History.Len(), 2*res.Ops)
	}
	for _, s := range res.Verdict.Samples {
		if s.MinT != 0 {
			t.Fatalf("linearizable counter window MinT = %d at %d events", s.MinT, s.Events)
		}
	}
	if res.Verdict.Trend != check.TrendStabilized {
		t.Fatalf("trend = %s, want stabilized", res.Verdict.Trend)
	}
	if res.Throughput <= 0 || res.LatMax <= 0 {
		t.Fatalf("missing perf stats: %+v", res)
	}
}

func TestRunReplayByteIdentical(t *testing.T) {
	// The reproducibility contract: replaying a recorded run re-derives it
	// byte for byte, for every object kind (the junk counter runs with the
	// monitor in observe-only mode so its run completes).
	objects := map[string]Object{
		"atomic-fi":   NewAtomicFetchInc("C", 0),
		"serialized":  newPassthrough(t, "C", spec.NewObject(spec.FetchInc{}), nil, 6, 3),
		"el-counter":  newPassthrough(t, "C", spec.NewObject(spec.FetchInc{}), base.Window{K: 200}, 6, 3),
		"junk-sticky": NewJunkFetchInc("C", 40),
	}
	for name, obj := range objects {
		res, err := Run(Config{
			Object:  obj,
			Clients: 6,
			Ops:     300,
			Seed:    5,
			Monitor: check.IncrementalConfig{Stride: 128, MaxT: -1},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same, err := Verify(obj, res.History)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !same {
			t.Fatalf("%s: replay is not byte-identical to the recorded run", name)
		}
	}
}

func TestRunEventualStabilizes(t *testing.T) {
	// An eventually linearizable counter: stale windows early, exact after
	// the policy stabilizes. In observe-only mode the trend must stabilize.
	s := newPassthrough(t, "C", spec.NewObject(spec.FetchInc{}), base.Window{K: 300}, 3, 9)
	res, err := Run(Config{
		Object:  s,
		Clients: 3,
		Ops:     800,
		Seed:    9,
		Monitor: check.IncrementalConfig{Stride: 256, MaxT: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := res.Verdict.Samples
	if len(samples) < 6 {
		t.Fatalf("only %d windows", len(samples))
	}
	// Early staleness must be visible, late windows exact.
	if samples[0].MinT == 0 {
		t.Logf("note: first window already exact (stale choices can be true by chance)")
	}
	last := samples[len(samples)-1]
	if last.MinT != 0 {
		t.Fatalf("post-stabilization window MinT = %d: %+v", last.MinT, samples)
	}
	if res.Verdict.Trend != check.TrendStabilized {
		t.Fatalf("trend = %s, want stabilized (%+v)", res.Verdict.Trend, samples)
	}
}

func TestRunJunkCaughtShrunkConfirmed(t *testing.T) {
	// The end-to-end acceptance pipeline: the junk counter is caught by the
	// online monitor, the window shrinks to a near-minimal core, and the
	// shrunk counterexample replays to the same violation inside sim.
	res, err := Run(Config{
		Object:  NewJunkFetchInc("C", 50),
		Clients: 4,
		Ops:     200,
		Seed:    1,
		Monitor: check.IncrementalConfig{Stride: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("junk counter not caught by the online monitor")
	}
	if !res.Stopped {
		t.Fatal("violation did not stop the run")
	}
	w, err := Shrink(res.Violation, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Ops < 1 || w.Ops > 2 {
		t.Fatalf("shrunk witness has %d ops, want 1 or 2:\n%s", w.Ops, w.History)
	}
	if !w.Replay.Diverged {
		t.Fatal("shrunk witness does not diverge in sim")
	}
	if w.Replay.Got != 50 {
		t.Fatalf("diverging response %d, want the stuck value 50", w.Replay.Got)
	}
	if w.Trials < 2 {
		t.Fatalf("shrinker ran only %d trials", w.Trials)
	}
}

// fuzzLoop runs a campaign the way the scenario layer does: run i is a single
// live run at base.Seed+i on a fresh object, stopping at the first violation.
// It returns the violating run's seed and result (nil when none), the number
// of runs made and their summed ops.
func fuzzLoop(t *testing.T, base Config, runs int) (seed int64, found *Result, n, ops int) {
	t.Helper()
	for i := 0; i < runs; i++ {
		cfg := base
		cfg.Seed = base.Seed + int64(i)
		obj, err := base.Object.Fresh()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Object = obj
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d (seed %d): %v", i, cfg.Seed, err)
		}
		n++
		ops += res.Ops
		if res.Violation != nil {
			return cfg.Seed, res, n, ops
		}
	}
	return 0, nil, n, ops
}

func TestFuzzFindsJunkAndCleanPasses(t *testing.T) {
	seed, junk, _, _ := fuzzLoop(t, Config{
		Object:  NewJunkFetchInc("C", 30),
		Clients: 4,
		Ops:     100,
		Seed:    100,
		Monitor: check.IncrementalConfig{Stride: 64},
	}, 4)
	if junk == nil {
		t.Fatal("fuzz missed the junk counter")
	}
	if seed != 100 {
		t.Fatalf("violating seed %d, want 100 (first run)", seed)
	}
	w, err := Shrink(junk.Violation, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Replay.Diverged {
		t.Fatalf("fuzz witness not sim-confirmed: %+v", w)
	}

	_, clean, n, ops := fuzzLoop(t, Config{
		Object:  NewAtomicFetchInc("C", 0),
		Clients: 4,
		Ops:     200,
		Seed:    100,
		Monitor: check.IncrementalConfig{Stride: 64},
	}, 3)
	if clean != nil {
		t.Fatalf("fuzz flagged the correct counter: %+v", clean.Violation)
	}
	if n != 3 || ops != 3*4*200 {
		t.Fatalf("campaign stats: runs %d, ops %d", n, ops)
	}
}

func TestRunOpenLoop(t *testing.T) {
	res, err := Run(Config{
		Object:  NewAtomicFetchInc("C", 0),
		Clients: 3,
		Ops:     50,
		Seed:    2,
		Rate:    50000, // per-client ops/sec: finishes in ~1ms of schedule
		Monitor: check.IncrementalConfig{Stride: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("open-loop clean run flagged: %v", res.Violation)
	}
	if res.Ops != 150 {
		t.Fatalf("ops = %d, want 150", res.Ops)
	}
	if res.LatMax <= 0 {
		t.Fatal("open-loop latency not recorded")
	}
}

func TestRunSerializedRegisterMix(t *testing.T) {
	// A non-counter type through the generic checker: read/write mix on a
	// mutex-serialized register. Stride keeps each window under the
	// generic engine's operation cap.
	s := newPassthrough(t, "R", spec.NewObject(spec.Register{}), nil, 4, 4)
	res, err := Run(Config{
		Object:  s,
		Clients: 4,
		Ops:     150,
		Seed:    4,
		Gen:     RegisterMixGen(0.3, 8),
		Monitor: check.IncrementalConfig{Stride: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("serialized register flagged: %v", res.Violation)
	}
	if res.Verdict.Trend != check.TrendStabilized {
		t.Fatalf("trend = %s, want stabilized", res.Verdict.Trend)
	}
}

func TestRunLatencySampling(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ops    int
		sample int
		serial bool
	}{
		{"explicit", 1000, 100, false},
		{"default", 100_000, 0, false},
		{"default-serial", 100_000, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Config{
				Object:        NewAtomicFetchInc("C", 0),
				Clients:       2,
				Ops:           tc.ops,
				Seed:          3,
				MonitorSpec:   check.MonitorSpec{Kind: check.MonitorNone},
				LatencySample: tc.sample,
				Serial:        tc.serial,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil || len(res.Verdict.Samples) != 0 {
				t.Fatalf("record-only run produced monitor output: %+v", res)
			}
			if res.LatP50 <= 0 || res.LatP99 < res.LatP50 {
				t.Fatalf("latency percentiles: p50=%v p99=%v", res.LatP50, res.LatP99)
			}
		})
	}
}

// The default stride is the largest power of two leaving at least 1 024
// samples a client; an explicit stride is kept as given.
func TestLatencyStride(t *testing.T) {
	for _, tc := range []struct{ ops, n, want int }{
		{1, 0, 1},
		{2047, 0, 1},
		{2048, 0, 2},
		{10_000, 0, 8},
		{1_000_000, 0, 512},
		{0, 0, 1},
		{1_000_000, 1, 1},
		{10, 100, 100},
		{1_000_000, 7, 7},
	} {
		if got := LatencyStride(tc.ops, tc.n); got != tc.want {
			t.Errorf("LatencyStride(%d, %d) = %d, want %d", tc.ops, tc.n, got, tc.want)
		}
	}
}
