package check

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// Monitor is the online t-linearizability monitor seam: anything that can
// watch a growing single-object history event by event and answer with a
// per-window MinT trend, a violation, and its own perf accounting. The
// runtime's commit pipeline (live.Pipeline) holds a Monitor, never a
// concrete implementation, so exhaustive checking, sampling and sharding
// are one configuration knob — the spec vocabulary parsed by
// ParseMonitorSpec ("full", "sample:N", "shard:K", "shard:key", "none");
// under "none" the pipeline holds no monitor at all.
//
// The goroutine discipline is the same for every implementation: Feed,
// Finish, Abort and SetSampleEvery are called from one driving goroutine;
// the read accessors are safe from that goroutine at any time and from
// anywhere after Finish or Abort has returned.
type Monitor interface {
	// Feed appends one event. When the event completes a window whose MinT
	// exceeds the tolerance, the violation is returned (and retained); a
	// pipelined monitor may instead return the violation from a later Feed
	// — the detection lag of checking off the hot path. After a violation
	// the monitor is frozen: further Feeds return the same violation.
	Feed(e history.Event) (*WindowViolation, error)
	// Finish checks the final partial window, drains any in-flight checks,
	// and releases the monitor's resources. The returned violation, if any,
	// covers the tail.
	Finish() (*WindowViolation, error)
	// Abort releases the monitor's resources without measuring the tail
	// window (the crash path: the partial window died with the process).
	// Idempotent, and a no-op after Finish.
	Abort()

	// Events returns the number of events fed so far.
	Events() int
	// Checks returns the number of windows whose MinT search ran.
	Checks() int
	// Samples returns the per-window MinT measurements. The slice is live;
	// callers must not mutate it.
	Samples() []Sample
	// Violation returns the recorded violation, if any.
	Violation() *WindowViolation
	// Verdict classifies the trend of the per-window MinT series.
	Verdict() Verdict

	// SetSampleEvery switches to every-Nth-window sampling (n <= 1 restores
	// exhaustive checking) — the graceful-degradation knob an overloaded
	// server turns through this interface.
	SetSampleEvery(n int)
	// SampleEvery returns the current sampling interval (1 = exhaustive).
	SampleEvery() int
	// SkippedWindows returns how many closed windows skipped their MinT
	// search under sampling.
	SkippedWindows() int
	// Escalations returns how many times a near-violation forced sampling
	// back to exhaustive.
	Escalations() int
	// MaxSampleEvery returns the largest sampling interval the run reached
	// (0 when sampling was never engaged).
	MaxSampleEvery() int
}

// MonitorKind enumerates the monitor implementations the spec vocabulary
// selects.
type MonitorKind int

// MonitorKind values.
const (
	// MonitorFull: the sequential exhaustive Incremental (every window pays
	// a MinT search). The zero value, so an unset spec means full checking.
	MonitorFull MonitorKind = iota
	// MonitorSample: Incremental pre-degraded to every-Nth-window sampling.
	MonitorSample
	// MonitorShardWindow: the pipelined ShardedByWindow — window checks fan
	// out to N workers while recording continues.
	MonitorShardWindow
	// MonitorShardKey: ShardedByKey — one sub-monitor per object key.
	MonitorShardKey
	// MonitorNone: the record-only Null monitor.
	MonitorNone
)

// MonitorSpec is a parsed monitor selection: which implementation, and its
// parameter (sample interval or shard worker count). The zero value selects
// full exhaustive checking.
type MonitorSpec struct {
	Kind MonitorKind
	// N is the sample interval (MonitorSample) or worker count
	// (MonitorShardWindow); 0 elsewhere.
	N int
}

// ParseMonitorSpec parses the monitor spec vocabulary:
//
//	full        exhaustive windowed checking (the default; "" parses as full)
//	sample:N    check every Nth window, escalate back on a near-violation
//	shard:K     pipelined sharded checking on K workers
//	shard:key   one sub-monitor per object key
//	none        record only, no online checking
func ParseMonitorSpec(s string) (MonitorSpec, error) {
	switch s {
	case "", "full":
		return MonitorSpec{Kind: MonitorFull}, nil
	case "none":
		return MonitorSpec{Kind: MonitorNone}, nil
	}
	kind, arg, ok := strings.Cut(s, ":")
	if !ok {
		return MonitorSpec{}, fmt.Errorf("check: unknown monitor spec %q (want full, sample:N, shard:K, shard:key or none)", s)
	}
	switch kind {
	case "sample":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 2 {
			return MonitorSpec{}, fmt.Errorf("check: monitor spec %q: sample interval must be an integer >= 2", s)
		}
		return MonitorSpec{Kind: MonitorSample, N: n}, nil
	case "shard":
		if arg == "key" {
			return MonitorSpec{Kind: MonitorShardKey}, nil
		}
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 {
			return MonitorSpec{}, fmt.Errorf("check: monitor spec %q: shard count must be an integer >= 1 (or \"key\")", s)
		}
		return MonitorSpec{Kind: MonitorShardWindow, N: n}, nil
	}
	return MonitorSpec{}, fmt.Errorf("check: unknown monitor spec %q (want full, sample:N, shard:K, shard:key or none)", s)
}

// String returns the canonical spelling ParseMonitorSpec accepts.
func (ms MonitorSpec) String() string {
	switch ms.Kind {
	case MonitorSample:
		return fmt.Sprintf("sample:%d", ms.N)
	case MonitorShardWindow:
		return fmt.Sprintf("shard:%d", ms.N)
	case MonitorShardKey:
		return "shard:key"
	case MonitorNone:
		return "none"
	default:
		return "full"
	}
}

// NewMonitor constructs the monitor a spec selects, watching a history
// against obj under the shared windowing config. This is the constructor
// the runtime uses; NewIncremental remains as the direct form of the
// sequential monitor.
func NewMonitor(ms MonitorSpec, obj spec.Object, cfg IncrementalConfig) (Monitor, error) {
	switch ms.Kind {
	case MonitorFull:
		return NewIncremental(obj, cfg), nil
	case MonitorSample:
		if ms.N < 2 {
			return nil, fmt.Errorf("check: monitor sample interval %d (want >= 2)", ms.N)
		}
		m := NewIncremental(obj, cfg)
		m.SetSampleEvery(ms.N)
		return m, nil
	case MonitorShardWindow:
		return NewShardedByWindow(obj, cfg, ms.N)
	case MonitorShardKey:
		return NewShardedByKey(obj, cfg), nil
	case MonitorNone:
		return NewNull(), nil
	}
	return nil, fmt.Errorf("check: unknown monitor kind %d", ms.Kind)
}

// Null is the record-only monitor: it counts events and does nothing else.
// It is what NewMonitor answers the "none" spec with; the runtime never
// asks (live.Pipeline builds no monitor under "none").
type Null struct {
	events int
}

// NewNull returns a record-only monitor.
func NewNull() *Null { return &Null{} }

// Feed implements Monitor (counting only).
func (n *Null) Feed(history.Event) (*WindowViolation, error) {
	n.events++
	return nil, nil
}

// Finish implements Monitor (no-op).
func (n *Null) Finish() (*WindowViolation, error) { return nil, nil }

// Abort implements Monitor (no-op).
func (n *Null) Abort() {}

// Events implements Monitor.
func (n *Null) Events() int { return n.events }

// Checks implements Monitor (always 0).
func (n *Null) Checks() int { return 0 }

// Samples implements Monitor (always nil).
func (n *Null) Samples() []Sample { return nil }

// Violation implements Monitor (always nil).
func (n *Null) Violation() *WindowViolation { return nil }

// Verdict implements Monitor: no samples, so always inconclusive.
func (n *Null) Verdict() Verdict {
	v := Verdict{}
	v.Trend, v.Slope = Classify(nil)
	return v
}

// SetSampleEvery implements Monitor (no-op: nothing is ever checked).
func (n *Null) SetSampleEvery(int) {}

// SampleEvery implements Monitor.
func (n *Null) SampleEvery() int { return 1 }

// SkippedWindows implements Monitor.
func (n *Null) SkippedWindows() int { return 0 }

// Escalations implements Monitor.
func (n *Null) Escalations() int { return 0 }

// MaxSampleEvery implements Monitor.
func (n *Null) MaxSampleEvery() int { return 0 }
