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

// recSink is a recording CommitSink: it keeps every frame, counts Close
// calls, and fails the failAt-th Append (1-based; 0 never fails).
type recSink struct {
	events []history.Event
	pos    []uint64
	closes int
	failAt int
}

func (s *recSink) Append(e history.Event, pos uint64) error {
	if s.closes > 0 {
		return errors.New("append after close")
	}
	if s.failAt > 0 && len(s.events)+1 == s.failAt {
		return errSinkBoom
	}
	s.events = append(s.events, e)
	s.pos = append(s.pos, pos)
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

// feedAll drives h through p the way a driver does — invocations at their
// sequencer stamp, responses at their commit ticket — and returns how many
// events went in and the first error.
func feedAll(p *Pipeline, h *history.History) (int, error) {
	for i := 0; i < h.Len(); i++ {
		e := h.Event(i)
		pos := uint64(i / 2)
		if e.Kind == history.KindRespond {
			pos++
		}
		if err := p.Feed(e, pos); err != nil {
			return i + 1, err
		}
	}
	return h.Len(), nil
}

// The pipeline contract both drivers rely on, one row per clause.
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
		drive   func(t *testing.T, p *Pipeline, sink *recSink)
	}{
		{
			name: "order: the crash commit is durable and unchecked", spec: full, crashAt: 3,
			drive: func(t *testing.T, p *Pipeline, sink *recSink) {
				n, err := feedAll(p, counterHistory(t, 8, -1))
				if err != ErrStop || n != 6 {
					t.Fatalf("fed %d events, err %v; want ErrStop at event 6", n, err)
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
				if err := p.Finish(); err != nil {
					t.Fatal(err)
				}
				if p.Monitor().Checks() != 1 {
					t.Fatalf("%d windows checked, want only the one closed before the crash (the partial window dies with the process)", p.Monitor().Checks())
				}
			},
		},
		{
			name: "a sink error stops the event and reaches the caller", spec: full, failAt: 3,
			drive: func(t *testing.T, p *Pipeline, sink *recSink) {
				n, err := feedAll(p, counterHistory(t, 8, -1))
				if !errors.Is(err, errSinkBoom) || n != 3 {
					t.Fatalf("fed %d events, err %v; want the sink's error at event 3", n, err)
				}
				if got := p.Monitor().Events(); got != 2 {
					t.Fatalf("monitor saw %d events, want 2 (not the one the sink refused)", got)
				}
			},
		},
		{
			name: "none: no monitor, no verdict, everything logged", spec: none,
			drive: func(t *testing.T, p *Pipeline, sink *recSink) {
				if _, err := feedAll(p, counterHistory(t, 8, 2)); err != nil {
					t.Fatal(err)
				}
				if err := p.Finish(); err != nil {
					t.Fatal(err)
				}
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
			drive: func(t *testing.T, p *Pipeline, sink *recSink) {
				if got := p.Monitor().Events(); got != 6 || len(sink.events) != 0 {
					t.Fatalf("monitor primed with %d events, sink holds %d; want 6 and 0", got, len(sink.events))
				}
			},
		},
		{
			name: "violation: one ErrStop, then logged but unchecked; Abort after Finish is a no-op", spec: full,
			drive: func(t *testing.T, p *Pipeline, sink *recSink) {
				h := counterHistory(t, 8, 2)
				stops := 0
				for i := 0; i < h.Len(); i++ {
					switch err := p.Feed(h.Event(i), uint64(i)); err {
					case nil:
					case ErrStop:
						stops++
					default:
						t.Fatal(err)
					}
				}
				if stops != 1 || p.Violation() == nil || len(sink.events) != h.Len() {
					t.Fatalf("%d stops, violation %v, %d frames", stops, p.Violation(), len(sink.events))
				}
				seen := p.Monitor().Events()
				if err := p.Finish(); err != nil {
					t.Fatal(err)
				}
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
			sink := &recSink{failAt: c.failAt}
			p, err := NewPipeline(NewAtomicFetchInc("C", 0), c.spec, check.IncrementalConfig{Stride: 4}, sink, c.crashAt, c.prefix)
			if (err != nil) != c.newErr {
				t.Fatalf("NewPipeline error = %v, want error %v", err, c.newErr)
			}
			if err == nil {
				c.drive(t, p, sink)
				p.Abort()
			}
			if sink.closes != 1 {
				t.Fatalf("sink closed %d times, want exactly once", sink.closes)
			}
		})
	}

	// Feeder is nil only when nothing is downstream of the merge.
	for _, withSink := range []bool{false, true} {
		for _, crashAt := range []uint64{0, 3} {
			for _, ms := range []check.MonitorSpec{none, full} {
				var sink CommitSink
				if withSink {
					sink = &recSink{}
				}
				p, err := NewPipeline(NewAtomicFetchInc("C", 0), ms, check.IncrementalConfig{Stride: 4}, sink, crashAt, nil)
				if err != nil {
					t.Fatal(err)
				}
				empty := !withSink && crashAt == 0 && ms.Kind == check.MonitorNone
				if (p.Feeder() == nil) != empty {
					t.Errorf("sink %v, crash at %d, monitor %v: Feeder() nil is %v, want %v", withSink, crashAt, ms, p.Feeder() == nil, empty)
				}
				p.Abort()
			}
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
