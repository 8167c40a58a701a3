package live

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

var errSinkBoom = errors.New("disk on fire")

// recSink is a recording CommitSink: it keeps every event of every drain
// with its position, counts Close calls, and fails at the failAt-th event
// (1-based; 0 never fails), keeping the events before it.
type recSink struct {
	events []history.Event
	pos    []uint64
	closes int
	failAt int
}

func (s *recSink) AppendEvents(h *history.History, from, to int, pos []uint64) error {
	if s.closes > 0 {
		return errors.New("append after close")
	}
	for i := from; i < to; i++ {
		if s.failAt > 0 && len(s.events)+1 == s.failAt {
			return errSinkBoom
		}
		s.events = append(s.events, h.Event(i))
		s.pos = append(s.pos, pos[i-from])
	}
	return nil
}

func (s *recSink) Close() error {
	s.closes++
	return nil
}

// counterHistory is a serial one-client fetch&inc history of n operations;
// responses stick at stickAt (a junk counter) when it is non-negative.
func counterHistory(t *testing.T, n, stickAt int) *history.History {
	t.Helper()
	h := history.New()
	op := spec.MakeOp(spec.MethodFetchInc)
	for i := 0; i < n; i++ {
		resp := int64(i)
		if stickAt >= 0 && i > stickAt {
			resp = int64(stickAt)
		}
		if err := h.Invoke(0, "C", op); err != nil {
			t.Fatal(err)
		}
		if err := h.Respond(0, resp); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// advanceAll drives h's events from p.Events() on through p the way a
// driver does — invocations at their sequencer stamp, responses at their
// commit ticket — either in one drain-sized call or one event at a time
// (stepwise) over a history growing to h. A stop ends the drive unless
// again is set, when the drive carries on the server's way: the same call
// once more, for the rest of its events. It returns the number of ErrStops
// and the first other error.
func advanceAll(t *testing.T, p *Pipeline, h *history.History, stepwise, again bool) (int, error) {
	t.Helper()
	pos := make([]uint64, h.Len())
	for i := range pos {
		pos[i] = uint64(i/2 + i%2)
	}
	g, from, stops := h, p.Events(), 0
	if stepwise {
		g = h.Prefix(from)
	}
	for i := from; i < h.Len(); i++ {
		to := h.Len()
		if stepwise {
			mustDo(t, g.Append(h.Event(i)))
			to = i + 1
		}
		err := p.Advance(g, pos[from:to])
		if err == ErrStop && again {
			stops++
			err = p.Advance(g, pos[from:to])
		}
		switch {
		case err == ErrStop:
			return stops + 1, nil
		case err != nil:
			return stops, err
		}
		if from = to; !stepwise {
			break
		}
	}
	return stops, nil
}

// mustDo fails t on a non-nil err.
func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// The pipeline contract both drivers rely on, one row per clause. Each row
// is driven twice: as one drain-sized Advance, and one event at a time.
func TestPipelineContract(t *testing.T) {
	full := check.MonitorSpec{}
	none := check.MonitorSpec{Kind: check.MonitorNone}
	cases := []struct {
		name    string
		spec    check.MonitorSpec
		crashAt uint64
		failAt  int
		prefix  *history.History
		newErr  bool
		drive   func(t *testing.T, p *Pipeline, sink *recSink, stepwise bool)
	}{
		{
			name: "order: the crash commit is durable and unchecked", spec: full, crashAt: 3,
			drive: func(t *testing.T, p *Pipeline, sink *recSink, stepwise bool) {
				stops, err := advanceAll(t, p, counterHistory(t, 8, -1), stepwise, false)
				if err != nil || stops != 1 || p.Events() != 6 {
					t.Fatalf("%d stops, err %v, stream cut at %d; want one stop at event 6", stops, err, p.Events())
				}
				if len(sink.events) != 6 || sink.pos[5] != 3 || sink.events[5].Kind != history.KindRespond {
					t.Fatalf("sink holds %d frames ending at pos %d; want the crash commit (ticket 3) as frame 6", len(sink.events), sink.pos[len(sink.pos)-1])
				}
				if got := p.Monitor().Events(); got != 5 {
					t.Fatalf("monitor saw %d events, want 5 (not the crash commit)", got)
				}
				if ticket, ok := p.Crashed(); !ok || ticket != 3 {
					t.Fatalf("Crashed() = %d, %v", ticket, ok)
				}
				mustDo(t, p.Finish())
				if p.Monitor().Checks() != 1 {
					t.Fatalf("%d windows checked, want only the one closed before the crash (the partial window dies with the process)", p.Monitor().Checks())
				}
			},
		},
		{
			name: "a violation, then a crash commit, in one call: the violation cuts", spec: full, crashAt: 5,
			drive: func(t *testing.T, p *Pipeline, sink *recSink, stepwise bool) {
				stops, err := advanceAll(t, p, counterHistory(t, 8, 2), stepwise, false)
				v := p.Violation()
				if err != nil || stops != 1 || v == nil || v.End != 8 || p.Events() != 8 {
					t.Fatalf("%d stops, err %v, violation %v, cut at %d; want the window [4,8)", stops, err, v, p.Events())
				}
				if _, crashed := p.Crashed(); crashed || len(sink.events) != v.End {
					t.Fatalf("crashed %v, sink holds %d frames; want no crash and [0,%d)", crashed, len(sink.events), v.End)
				}
			},
		},
		{
			name: "a crash commit, then a violation: the crash cuts", spec: full, crashAt: 3,
			drive: func(t *testing.T, p *Pipeline, sink *recSink, stepwise bool) {
				stops, err := advanceAll(t, p, counterHistory(t, 8, 2), stepwise, false)
				if ticket, crashed := p.Crashed(); err != nil || stops != 1 || !crashed || ticket != 3 || p.Violation() != nil {
					t.Fatalf("%d stops, err %v, crashed %v at %d, violation %v; want the crash at ticket 3", stops, err, crashed, ticket, p.Violation())
				}
				if len(sink.events) != 6 || p.Monitor().Events() != 5 {
					t.Fatalf("sink holds %d frames, monitor saw %d events; want [0,5] and [0,5)", len(sink.events), p.Monitor().Events())
				}
			},
		},
		{
			name: "a sink error stops the event and reaches the caller", spec: full, failAt: 3,
			drive: func(t *testing.T, p *Pipeline, sink *recSink, stepwise bool) {
				_, err := advanceAll(t, p, counterHistory(t, 8, -1), stepwise, false)
				if !errors.Is(err, errSinkBoom) || len(sink.events) != 2 || p.Events() > 2 {
					t.Fatalf("err %v, sink holds %d frames, stream passed %d events; want the sink's error at event 3, unpassed",
						err, len(sink.events), p.Events())
				}
			},
		},
		{
			name: "none: no monitor, no verdict, everything logged", spec: none,
			drive: func(t *testing.T, p *Pipeline, sink *recSink, stepwise bool) {
				if stops, err := advanceAll(t, p, counterHistory(t, 8, 2), stepwise, false); stops != 0 || err != nil {
					t.Fatalf("%d stops, err %v", stops, err)
				}
				mustDo(t, p.Finish())
				if p.Monitor() != nil || p.Violation() != nil || len(sink.events) != 16 {
					t.Fatalf("monitor %v violation %v frames %d", p.Monitor(), p.Violation(), len(sink.events))
				}
			},
		},
		{
			name: "a violating prefix fails construction", spec: full,
			prefix: counterHistory(t, 8, 2), newErr: true,
		},
		{
			name: "a prefix primes the monitor and is not logged again", spec: full,
			prefix: counterHistory(t, 3, -1),
			drive: func(t *testing.T, p *Pipeline, sink *recSink, stepwise bool) {
				if got := p.Monitor().Events(); got != 6 || p.Events() != 6 || len(sink.events) != 0 {
					t.Fatalf("monitor primed with %d events, pipeline at %d, sink holds %d; want 6, 6 and 0", got, p.Events(), len(sink.events))
				}
				if stops, err := advanceAll(t, p, counterHistory(t, 6, -1), stepwise, false); stops != 0 || err != nil {
					t.Fatalf("%d stops, err %v", stops, err)
				}
				if got := p.Monitor().Events(); got != 12 || len(sink.events) != 6 || sink.pos[0] != 3 {
					t.Fatalf("monitor saw %d events, sink holds %d from pos %d; want 12, and the 6 past the prefix from 3", got, len(sink.events), sink.pos[0])
				}
			},
		},
		{
			name: "violation: one ErrStop, then logged but unchecked; Abort after Finish is a no-op", spec: full,
			drive: func(t *testing.T, p *Pipeline, sink *recSink, stepwise bool) {
				h := counterHistory(t, 8, 2)
				stops, err := advanceAll(t, p, h, stepwise, true)
				if err != nil || stops != 1 || p.Violation() == nil || len(sink.events) != h.Len() {
					t.Fatalf("%d stops, err %v, violation %v, %d frames", stops, err, p.Violation(), len(sink.events))
				}
				seen := p.Monitor().Events()
				mustDo(t, p.Finish())
				if sink.closes != 1 {
					t.Fatalf("sink closed %d times by Finish", sink.closes)
				}
				p.Abort()
				if p.Monitor().Events() != seen || p.Violation() == nil {
					t.Fatal("Abort after Finish changed the outcome")
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, stepwise := range []bool{false, true} {
				t.Run(map[bool]string{false: "drain", true: "stepwise"}[stepwise], func(t *testing.T) {
					sink := &recSink{failAt: c.failAt}
					p, err := NewPipeline(NewAtomicFetchInc("C", 0), c.spec, check.IncrementalConfig{Stride: 4}, sink, c.crashAt, c.prefix)
					if (err != nil) != c.newErr {
						t.Fatalf("NewPipeline error = %v, want error %v", err, c.newErr)
					}
					if err == nil {
						c.drive(t, p, sink, stepwise)
						p.Abort()
					}
					if sink.closes != 1 {
						t.Fatalf("sink closed %d times, want exactly once", sink.closes)
					}
				})
			}
		})
	}

	// Positions only for a sink or a crash cut.
	for _, withSink := range []bool{false, true} {
		for _, crashAt := range []uint64{0, 3} {
			var sink CommitSink
			if withSink {
				sink = &recSink{}
			}
			p, err := NewPipeline(NewAtomicFetchInc("C", 0), full, check.IncrementalConfig{Stride: 4}, sink, crashAt, nil)
			mustDo(t, err)
			if p.Positions() != (withSink || crashAt > 0) {
				t.Errorf("sink %v, crash at %d: Positions() = %v", withSink, crashAt, p.Positions())
			}
			p.Abort()
		}
	}

	// On both drivers the run's history ends where the pipeline cut the
	// stream, whatever the drain merged past it: at the violating window's
	// End, and at the crash commit, the sink's last frame.
	for _, serial := range []bool{false, true} {
		sink := &recSink{}
		res, err := Run(Config{Object: NewJunkFetchInc("C", 20), Clients: 2, Ops: 200, Seed: 1, Serial: serial,
			Monitor: check.IncrementalConfig{Stride: 16}, Sink: sink})
		if err != nil || res.Violation == nil {
			t.Fatalf("serial %v: junk run gave violation %v, err %v", serial, res.Violation, err)
		}
		if n := res.History.Len(); n != res.Violation.End || len(sink.events) != n {
			t.Fatalf("serial %v: history of %d events, sink of %d, violation ends at %d", serial, n, len(sink.events), res.Violation.End)
		}
		sink = &recSink{}
		res, err = Run(Config{Object: NewAtomicFetchInc("C", 0), Clients: 2, Ops: 200, Seed: 1, Serial: serial,
			Faults: mustFaults(t, "crash:50"), Sink: sink})
		if err != nil || !res.Crashed {
			t.Fatalf("serial %v: crash run gave crashed %v, err %v", serial, res.Crashed, err)
		}
		n := res.History.Len()
		if last := res.History.Event(n - 1); last.Kind != history.KindRespond || last.Resp != 49 ||
			len(sink.events) != n || sink.pos[n-1] != res.CrashTicket {
			t.Fatalf("serial %v: history ends at %v (sink: %d frames to pos %d); want the commit of ticket %d", serial, last, len(sink.events), sink.pos[len(sink.pos)-1], res.CrashTicket)
		}
	}

	// Under monitor none, both drivers still log every event and still stop
	// at the crash commit.
	for _, serial := range []bool{false, true} {
		base := func() Config {
			return Config{Object: NewAtomicFetchInc("C", 0), Clients: 2, Ops: 100, Seed: 1, Serial: serial, MonitorSpec: none}
		}
		sink := &recSink{}
		logged := base()
		logged.Sink = sink
		if _, err := Run(logged); err != nil || len(sink.events) != 2*2*100 {
			t.Fatalf("serial %v: record-only run logged %d frames (%v), want %d", serial, len(sink.events), err, 2*2*100)
		}
		crashed := base()
		crashed.Faults = mustFaults(t, "crash:50")
		res, err := Run(crashed)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Crashed || res.CrashTicket != 50 {
			t.Fatalf("serial %v: record-only run with crash:50 gave crashed %v at %d", serial, res.Crashed, res.CrashTicket)
		}
	}
}

// Every way out of Run — and every way NewPipeline refuses to start one —
// closes the sink exactly once.
func TestRunClosesSinkOnce(t *testing.T) {
	fi := func() Object { return NewAtomicFetchInc("C", 0) }
	cases := []struct {
		name    string
		cfg     Config
		failAt  int
		wantErr bool
	}{
		{name: "no object", cfg: Config{}, wantErr: true},
		{name: "bad monitor spec", cfg: Config{Object: fi(), MonitorSpec: check.MonitorSpec{Kind: check.MonitorSample, N: 1}}, wantErr: true},
		{name: "violating prefix", cfg: Config{Object: fi(), History: counterHistory(t, 8, 2), Monitor: check.IncrementalConfig{Stride: 4}}, wantErr: true},
		{name: "clean", cfg: Config{Object: fi()}},
		{name: "clean serial", cfg: Config{Object: fi(), Serial: true}},
		{name: "record-only", cfg: Config{Object: fi(), MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone}}},
		{name: "violation", cfg: Config{Object: NewJunkFetchInc("C", 20), Monitor: check.IncrementalConfig{Stride: 16}}},
		{name: "violation serial", cfg: Config{Object: NewJunkFetchInc("C", 20), Monitor: check.IncrementalConfig{Stride: 16}, Serial: true}},
		{name: "crash", cfg: Config{Object: fi(), Faults: mustFaults(t, "crash:50")}},
		{name: "crash serial", cfg: Config{Object: fi(), Faults: mustFaults(t, "crash:50"), Serial: true}},
		{name: "client error", cfg: Config{Object: &failingObject{}}, wantErr: true},
		{name: "client error serial", cfg: Config{Object: &failingObject{}, Serial: true}, wantErr: true},
		{name: "sink error", cfg: Config{Object: fi()}, failAt: 7, wantErr: true},
		{name: "sink error serial", cfg: Config{Object: fi(), Serial: true}, failAt: 7, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sink := &recSink{failAt: c.failAt}
			c.cfg.Sink = sink
			c.cfg.Clients, c.cfg.Ops, c.cfg.Seed = 2, 100, 1
			res, err := Run(c.cfg)
			if (err != nil) != c.wantErr {
				t.Fatalf("Run error = %v, want error %v", err, c.wantErr)
			}
			if c.failAt > 0 && !errors.Is(err, errSinkBoom) {
				t.Fatalf("sink error lost on the way up: %v", err)
			}
			if sink.closes != 1 {
				t.Fatalf("sink closed %d times, want exactly once", sink.closes)
			}
			if err == nil && c.cfg.MonitorSpec.Kind == check.MonitorNone && !reflect.DeepEqual(res.Verdict, check.Verdict{}) {
				t.Fatalf("record-only run carries a verdict: %+v", res.Verdict)
			}
		})
	}
}

// One percentile routine serves the live Result and the loadgen report:
// nearest-rank on the merged sample, whatever the split across clients.
func TestPercentiles(t *testing.T) {
	var a, b []int64
	for i := int64(100); i >= 1; i-- { // unsorted on purpose
		if i%2 == 0 {
			a = append(a, i)
		} else {
			b = append(b, i)
		}
	}
	p50, p95, p99, max := Percentiles(a, b)
	if p50 != 50 || p95 != 95 || p99 != 99 || max != 100 {
		t.Fatalf("p50=%d p95=%d p99=%d max=%d, want 50 95 99 100", p50, p95, p99, max)
	}
	if q50, q95, q99, qmax := Percentiles(append(a, b...)); q50 != p50 || q95 != p95 || q99 != p99 || qmax != max {
		t.Fatal("percentiles depend on how the sample is split")
	}
	// Fixed samples, to the nanosecond: the value at index int(q*(n-1)) of
	// the sorted merge.
	for _, c := range []struct {
		samples            [][]int64
		p50, p95, p99, max time.Duration
	}{
		{nil, 0, 0, 0, 0},
		{[][]int64{nil, {}}, 0, 0, 0, 0},
		{[][]int64{{7}}, 7, 7, 7, 7},
		{[][]int64{{9, 3}, nil, {5}}, 5, 5, 5, 9},
		{[][]int64{{4, 4, 4}, {4, 1_000_000_007}}, 4, 4, 4, 1_000_000_007},
		{[][]int64{{31, 2, 17, 5}, {23, 11, 3}, {29, 7, 13, 19}}, 13, 29, 29, 31},
		{[][]int64{{-5, 0}, {5}}, 0, 0, 0, 5},
	} {
		p50, p95, p99, max := Percentiles(c.samples...)
		if p50 != c.p50 || p95 != c.p95 || p99 != c.p99 || max != c.max {
			t.Errorf("Percentiles(%v) = %d %d %d %d, want %d %d %d %d",
				c.samples, p50, p95, p99, max, c.p50, c.p95, c.p99, c.max)
		}
	}
}
