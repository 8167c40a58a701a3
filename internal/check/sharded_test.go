package check

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// feedMon drives any Monitor over a whole history: feed every event (a
// reported violation freezes the monitor, so feeding on is harmless and
// mirrors what a pipelined monitor needs), then Finish. The monitor's final
// accessor state is the result under test.
func feedMon(t *testing.T, m Monitor, h *history.History) {
	t.Helper()
	for i := 0; i < h.Len(); i++ {
		if v, _ := m.Feed(h.Event(i)); v != nil {
			break
		}
	}
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
}

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
		{"shard:1", MonitorSpec{Kind: MonitorShardWindow, N: 1}, "shard:1"},
		{"shard:8", MonitorSpec{Kind: MonitorShardWindow, N: 8}, "shard:8"},
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
	for _, in := range []string{"sample:1", "sample:0", "sample:x", "shard:0", "shard:-2", "shard:", "shard:key", "bogus", "full:2", "sample"} {
		if ms, err := ParseMonitorSpec(in); err == nil {
			t.Errorf("ParseMonitorSpec(%q) accepted as %+v", in, ms)
		}
	}
}

func TestNewMonitorKinds(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	cfg := IncrementalConfig{Stride: 16}
	cases := []struct {
		spec   string
		every  int
		pooled bool
	}{
		{"full", 1, false},
		{"sample:4", 4, false},
		{"shard:2", 1, true},
	}
	for _, c := range cases {
		ms, err := ParseMonitorSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		mon, err := NewMonitor(ms, obj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := mon.(*Incremental)
		if m.Sampling().Every != c.every || (m.pool != nil) != c.pooled {
			t.Errorf("NewMonitor(%q): sample every %d, pool %v", c.spec, m.Sampling().Every, m.pool != nil)
		}
		m.Abort()
	}
	for _, ms := range []MonitorSpec{{Kind: MonitorShardWindow, N: 0}, {Kind: MonitorSample, N: 1}, {Kind: MonitorNone}} {
		if _, err := NewMonitor(ms, obj, cfg); err == nil {
			t.Errorf("NewMonitor(%+v) built a monitor", ms)
		}
	}
}

// pooled builds the monitor with a checker pool of the given size.
func pooled(t *testing.T, obj spec.Object, cfg IncrementalConfig, workers int) *Incremental {
	t.Helper()
	m, err := NewMonitor(MonitorSpec{Kind: MonitorShardWindow, N: workers}, obj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*Incremental)
}

// requireSameOutcome pins a monitor's final state to the sequential
// reference: sample series, check count, verdict, and the violation window.
func requireSameOutcome(t *testing.T, label string, ref *Incremental, m Monitor) {
	t.Helper()
	rs, ms := ref.Samples(), m.Samples()
	if len(rs) != len(ms) {
		t.Fatalf("%s: %d samples, reference has %d", label, len(ms), len(rs))
	}
	for i := range rs {
		if rs[i] != ms[i] {
			t.Fatalf("%s: sample %d = %+v, reference %+v", label, i, ms[i], rs[i])
		}
	}
	if ref.Checks() != m.Checks() {
		t.Errorf("%s: checks = %d, reference %d", label, m.Checks(), ref.Checks())
	}
	rv, mv := ref.Verdict(), m.Verdict()
	if rv.Trend != mv.Trend || rv.FinalMinT != mv.FinalMinT {
		t.Errorf("%s: verdict trend=%s final=%d, reference trend=%s final=%d",
			label, mv.Trend, mv.FinalMinT, rv.Trend, rv.FinalMinT)
	}
	rw, mw := ref.Violation(), m.Violation()
	switch {
	case (rw == nil) != (mw == nil):
		t.Fatalf("%s: violation = %v, reference %v", label, mw, rw)
	case rw != nil:
		if rw.Start != mw.Start || rw.End != mw.End || rw.MinT != mw.MinT {
			t.Errorf("%s: violation window [%d,%d) minT=%d, reference [%d,%d) minT=%d",
				label, mw.Start, mw.End, mw.MinT, rw.Start, rw.End, rw.MinT)
		}
		if rw.Window.String() != mw.Window.String() {
			t.Errorf("%s: violation window text differs:\n%s\nreference:\n%s",
				label, mw.Window, rw.Window)
		}
	}
}

// equivalenceHistories are the fixed workloads the pooled monitor is
// pinned against: clean serial, clean concurrent, tolerated staleness, a
// mid-run duplicate (the junk-counter signature), and a stuck counter.
func equivalenceHistories(t *testing.T) map[string]*history.History {
	t.Helper()
	hs := map[string]*history.History{}

	hs["clean-serial"] = serialCounter(t, 300)

	conc := history.New()
	resp := int64(0)
	for round := 0; round < 80; round++ {
		mustDo(t, conc.Invoke(0, "C", spec.MakeOp(spec.MethodFetchInc)))
		mustDo(t, conc.Invoke(1, "C", spec.MakeOp(spec.MethodFetchInc)))
		mustDo(t, conc.Respond(1, resp))
		mustDo(t, conc.Respond(0, resp+1))
		resp += 2
	}
	hs["clean-concurrent"] = conc

	stale := history.New()
	k := int64(0)
	for round := 0; round < 40; round++ {
		mustDo(t, stale.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), k+1))
		mustDo(t, stale.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), k))
		k += 2
	}
	hs["tolerated-stale"] = stale

	dup := serialCounter(t, 120)
	mustDo(t, dup.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), 120))
	mustDo(t, dup.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), 120))
	for i := int64(121); i < 180; i++ {
		mustDo(t, dup.Call(int(i)%3, "C", spec.MakeOp(spec.MethodFetchInc), i))
	}
	hs["mid-run-duplicate"] = dup

	stuck := history.New()
	for i := int64(0); i < 160; i++ {
		r := i
		if r > 90 {
			r = 90 // the junk counter: increments lost past the stick point
		}
		mustDo(t, stuck.Call(int(i)%4, "C", spec.MakeOp(spec.MethodFetchInc), r))
	}
	hs["stuck-counter"] = stuck

	return hs
}

// The pooled monitor is pinned to the inline one: same samples, same
// checks, same verdict, same violation window — for every worker count, on
// clean, tolerated-stale and violating histories alike.
func TestShardedByWindowMatchesSequential(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	cfg := IncrementalConfig{Stride: 16, MaxT: 2}
	for name, h := range equivalenceHistories(t) {
		ref := NewIncremental(obj, cfg)
		feedMon(t, ref, h)
		for _, workers := range []int{1, 2, 4, 8} {
			m := pooled(t, obj, cfg, workers)
			feedMon(t, m, h)
			requireSameOutcome(t, fmt.Sprintf("%s/shard:%d", name, workers), ref, m)
		}
	}
}

// Sampling under a pool: the same windows are skipped as inline when the
// knob turns at the same event.
func TestShardedByWindowSampling(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	cfg := IncrementalConfig{Stride: 16}
	h := serialCounter(t, 400)
	ref := NewIncremental(obj, cfg)
	m := pooled(t, obj, cfg, 4)
	for i := 0; i < h.Len(); i++ {
		if i == 5*16 { // degrade mid-run, off a window boundary's phase
			ref.SetSampleEvery(3)
			m.SetSampleEvery(3)
		}
		if _, err := ref.Feed(h.Event(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Feed(h.Event(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	requireSameOutcome(t, "sampled", ref, m)
	if ref.Sampling().Skipped != m.Sampling().Skipped {
		t.Errorf("skipped = %d, reference %d", m.Sampling().Skipped, ref.Sampling().Skipped)
	}
	if m.Sampling().MaxEvery != 3 {
		t.Errorf("MaxSampleEvery = %d, want 3", m.Sampling().MaxEvery)
	}
}

// The lifecycle is the same inline and under a pool: Abort mid-stream drops
// the tail check and is idempotent alongside Finish; Abort after Finish
// changes nothing; Feed after either is an error; a second Finish returns
// the same violation; and once the monitor has finished, aborted or frozen on
// a violation, the pool's goroutines are gone.
func TestShardedByWindowAbort(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	clean := serialCounter(t, 30)
	dup := serialCounter(t, 20)
	mustDo(t, dup.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), 20))
	mustDo(t, dup.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), 20))
	for _, workers := range []int{0, 2} {
		baseline := runtime.NumGoroutine()
		mk := func() *Incremental {
			if workers == 0 {
				return NewIncremental(obj, IncrementalConfig{Stride: 8})
			}
			return pooled(t, obj, IncrementalConfig{Stride: 8}, workers)
		}
		// released fails unless the goroutine count returns to the baseline
		// (a worker that has signalled the WaitGroup may take a moment to exit).
		released := func(when string) {
			t.Helper()
			for i := 0; runtime.NumGoroutine() > baseline; i++ {
				if i == 1000 {
					t.Fatalf("workers=%d: %d goroutines after %s, baseline %d", workers, runtime.NumGoroutine(), when, baseline)
				}
				time.Sleep(time.Millisecond)
			}
		}
		feedAfter := func(m *Incremental, when string) {
			t.Helper()
			if v, err := m.Feed(clean.Event(0)); v != nil || err == nil {
				t.Fatalf("workers=%d: Feed after %s = %v, %v; want an error", workers, when, v, err)
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
		released("Abort")
		if v, err := m.Finish(); v != nil || err != nil {
			t.Fatalf("workers=%d: Finish after Abort = %v, %v", workers, v, err)
		}
		if len(m.Samples()) > 2 {
			t.Fatalf("workers=%d: aborted monitor measured its tail: %+v", workers, m.Samples())
		}
		feedAfter(m, "Abort")

		m = mk()
		feedMon(t, m, clean)
		released("Finish")
		samples := len(m.Samples())
		m.Abort()
		if v, err := m.Finish(); v != nil || err != nil || len(m.Samples()) != samples {
			t.Fatalf("workers=%d: second Finish = %v, %v, %d samples (had %d)", workers, v, err, len(m.Samples()), samples)
		}
		feedAfter(m, "Finish")

		m = mk()
		feedMon(t, m, dup)
		v := m.Violation()
		if v == nil {
			t.Fatalf("workers=%d: duplicate response not caught", workers)
		}
		released("a violation")
		for i := 0; i < 2; i++ {
			if again, err := m.Finish(); again != v || err != nil {
				t.Fatalf("workers=%d: Finish %d after the violation = %v, %v; want the same violation", workers, i, again, err)
			}
		}
		if again, err := m.Feed(clean.Event(0)); again != v || err != nil {
			t.Fatalf("workers=%d: frozen Feed = %v, %v", workers, again, err)
		}
	}
}

// Property: on any seeded single-key history — serial increments with
// bounded staleness swaps and an optional junk-counter stick — the
// pooled monitor's outcome is the inline monitor's, for a seed-derived
// worker count.
func TestShardedByWindowEquivalenceQuick(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := history.New()
		n := 100 + rng.Intn(300)
		stick := int64(-1)
		if rng.Intn(2) == 0 { // half the runs exercise the violation path
			stick = int64(20 + rng.Intn(n-20))
		}
		k := int64(0)
		emit := func(r int64) {
			mustDo(t, h.Call(rng.Intn(4), "C", spec.MakeOp(spec.MethodFetchInc), r))
		}
		for i := 0; i < n; i++ {
			r := k
			if stick >= 0 && k >= stick {
				r = stick // lost increments: the junk-counter signature
			}
			k++
			if rng.Intn(8) == 0 && i+1 < n {
				// Adjacent swap: tolerated staleness of 2.
				r2 := k
				if stick >= 0 && k >= stick {
					r2 = stick
				}
				k++
				i++
				emit(r2)
				emit(r)
				continue
			}
			emit(r)
		}
		cfg := IncrementalConfig{Stride: 8 + rng.Intn(24), MaxT: 2}
		ref := NewIncremental(obj, cfg)
		feedMon(t, ref, h)
		m := pooled(t, obj, cfg, 1+rng.Intn(8))
		feedMon(t, m, h)
		rv, mv := ref.Verdict(), m.Verdict()
		if rv.Trend != mv.Trend || rv.FinalMinT != mv.FinalMinT || ref.Checks() != m.Checks() {
			return false
		}
		rw, mw := ref.Violation(), m.Violation()
		if (rw == nil) != (mw == nil) {
			return false
		}
		if rw != nil && (rw.Start != mw.Start || rw.End != mw.End || rw.MinT != mw.MinT) {
			return false
		}
		return len(ref.Samples()) == len(m.Samples())
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
