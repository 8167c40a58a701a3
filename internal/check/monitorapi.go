package check

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// Monitor is the online t-linearizability monitor as the runtime's commit
// pipeline (live.Pipeline) holds it: something that watches a growing
// single-object history event by event and answers with a per-window MinT
// trend, a violation, and its own perf accounting. *Incremental is the one
// implementation; exhaustive checking and sampling are one configuration
// knob — the spec vocabulary parsed by ParseMonitorSpec ("full",
// "sample:N", "none"); under "none" the pipeline holds no monitor at all.
//
// Goroutine discipline: Feed, Finish, Abort and SetSampleEvery are called
// from one driving goroutine; the read accessors are safe from that
// goroutine at any time and from anywhere after Finish or Abort has
// returned.
type Monitor interface {
	// Feed appends one event. When the event completes a window whose MinT
	// exceeds the tolerance, the violation is returned (and retained). After
	// a violation the monitor is frozen: further Feeds return the same
	// violation. Feed after Finish or Abort is an error.
	Feed(e history.Event) (*WindowViolation, error)
	// Finish checks the final partial window and stops the monitor. The
	// returned violation, if any, covers the tail.
	Finish() (*WindowViolation, error)
	// Abort stops the monitor without measuring the tail window (the crash
	// path: the partial window died with the process).
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
	// Sampling returns the sampling-fallback accounting.
	Sampling() SamplingStats
}

var _ Monitor = (*Incremental)(nil)

// MonitorKind enumerates the monitor configurations the spec vocabulary
// selects.
type MonitorKind int

// MonitorKind values.
const (
	// MonitorFull: every window pays a MinT search, inline on the feeding
	// goroutine. The zero value, so an unset spec means full checking.
	MonitorFull MonitorKind = iota
	// MonitorSample: full, pre-degraded to every-Nth-window sampling.
	MonitorSample
	// MonitorNone: record only — the pipeline builds no monitor.
	MonitorNone
)

// The checker pool is deleted. Its kind survives as this alias of
// MonitorFull (the full monitor; N is ignored) for its one reader, the
// benchmark module's monitor probe (bench/layers.go). The change to that
// module that drops the probe's pool leg removes the alias.
//
// Deprecated: use MonitorFull.
const MonitorShardWindow = MonitorFull

// MonitorSpec is a parsed monitor selection: which configuration, and its
// parameter (the sample interval). The zero value selects full exhaustive
// checking.
type MonitorSpec struct {
	Kind MonitorKind
	// N is the sample interval (MonitorSample); 0 elsewhere.
	N int
}

// ParseMonitorSpec parses the monitor spec vocabulary:
//
//	full        exhaustive windowed checking (the default; "" parses as full)
//	sample:N    check every Nth window, escalate back on a near-violation
//	none        record only, no online checking
func ParseMonitorSpec(s string) (MonitorSpec, error) {
	switch s {
	case "", "full":
		return MonitorSpec{Kind: MonitorFull}, nil
	case "none":
		return MonitorSpec{Kind: MonitorNone}, nil
	}
	arg, ok := strings.CutPrefix(s, "sample:")
	if !ok {
		return MonitorSpec{}, fmt.Errorf("check: unknown monitor spec %q (want full, sample:N or none)", s)
	}
	n, err := strconv.Atoi(arg)
	if err != nil || n < 2 {
		return MonitorSpec{}, fmt.Errorf("check: monitor spec %q: sample interval must be an integer >= 2", s)
	}
	return MonitorSpec{Kind: MonitorSample, N: n}, nil
}

// String returns the canonical spelling ParseMonitorSpec accepts.
func (ms MonitorSpec) String() string {
	switch ms.Kind {
	case MonitorSample:
		return fmt.Sprintf("sample:%d", ms.N)
	case MonitorNone:
		return "none"
	default:
		return "full"
	}
}

// NewMonitor constructs the monitor a spec selects, watching a history
// against obj under the windowing config. Kind none is an error: building no
// monitor is the pipeline's decision, made before it gets here.
func NewMonitor(ms MonitorSpec, obj spec.Object, cfg IncrementalConfig) (Monitor, error) {
	m := NewIncremental(obj, cfg)
	switch ms.Kind {
	case MonitorFull:
	case MonitorSample:
		if ms.N < 2 {
			return nil, fmt.Errorf("check: monitor sample interval %d (want >= 2)", ms.N)
		}
		m.SetSampleEvery(ms.N)
	default:
		return nil, fmt.Errorf("check: no monitor to build for spec %s", ms)
	}
	return m, nil
}
