package check

import (
	"fmt"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// Sample records the minimum t making a prefix of a history t-linearizable.
type Sample struct {
	// Events is the prefix length (number of events).
	Events int
	// MinT is the least t for which the prefix is t-linearizable.
	MinT int
}

// Trend classifies the growth of MinT across prefixes.
type Trend int

// Trend values.
const (
	// TrendStabilized: MinT is constant over the tail of the run — the
	// behaviour expected of an eventually linearizable implementation once
	// its executions stabilize (Definition 4).
	TrendStabilized Trend = iota + 1
	// TrendDiverging: MinT keeps growing with the run — the finite-data
	// signature of a history family that is not t-linearizable for any
	// fixed t (e.g. Corollary 19 witnesses).
	TrendDiverging
	// TrendInconclusive: too few samples or mixed behaviour.
	TrendInconclusive
)

// String implements fmt.Stringer.
func (tr Trend) String() string {
	switch tr {
	case TrendStabilized:
		return "stabilized"
	case TrendDiverging:
		return "diverging"
	case TrendInconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("trend(%d)", int(tr))
	}
}

// Verdict summarizes a TrackMinT run.
type Verdict struct {
	// Samples are the (prefix length, MinT) measurements.
	Samples []Sample
	// FinalMinT is the MinT of the full history.
	FinalMinT int
	// Slope is the least-squares slope of MinT against prefix length over
	// the second half of the samples (events^-1 units).
	Slope float64
	// Trend is the classification.
	Trend Trend
	// Undecided counts the windows an observe-only monitor (MaxT < 0) closed
	// without a sample: the search budget could not decide them.
	Undecided int
}

// TrackMinT measures MinT on prefixes of the single-object history h at
// every stride events, classifying the growth trend. Infinite histories
// cannot be checked directly, so this is the paper-faithful finite
// instrument: Definitions 3/4 quantify over infinite histories, and by
// Lemma 5/6 a history family is eventually linearizable exactly when MinT
// of its prefixes is eventually constant. The last sample is the whole
// history's MinT, and the history is linearizable iff it is 0. The prefixes
// share one operation table, extended by each stride, and one scratch, as a
// monitor's windows do.
func TrackMinT(obj spec.Object, h *history.History, stride int, opts Options) (Verdict, error) {
	if stride <= 0 {
		stride = 1
	}
	var (
		v  Verdict
		tb history.OpTable
		sc scratch
	)
	for k := stride; ; k += stride {
		last := k >= h.Len()
		if last {
			k = h.Len()
		}
		tb.Extend(h, tb.Events, k)
		t, ok, err := windowMinT(obj, &tb, opts, &sc)
		if err != nil {
			return Verdict{}, fmt.Errorf("prefix %d: %w", k, err)
		}
		if !ok {
			return Verdict{}, fmt.Errorf("prefix %d: not t-linearizable for any t", k)
		}
		v.Samples = append(v.Samples, Sample{Events: k, MinT: t})
		if last {
			break
		}
	}
	v.FinalMinT = v.Samples[len(v.Samples)-1].MinT
	v.Trend, v.Slope = Classify(v.Samples)
	return v, nil
}

// Classify labels the growth trend of a MinT sample series and returns the
// least-squares slope its label is based on. It is the classification shared
// by TrackMinT (post-hoc prefixes) and Incremental (live windows); callers
// with their own sampling loops can feed it directly. Fewer than four
// samples are always inconclusive.
func Classify(samples []Sample) (Trend, float64) {
	slope := tailSlope(samples)
	return classify(samples, slope), slope
}

// tailSlope fits MinT = a + b*Events over the second half of the samples
// and returns b.
func tailSlope(samples []Sample) float64 {
	tail := samples[len(samples)/2:]
	if len(tail) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, s := range tail {
		x, y := float64(s.Events), float64(s.MinT)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(len(tail))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// classify labels the trend: constant MinT over the tail is stabilized;
// persistent growth (slope above 2% of an event per event, and a new
// maximum in the final sample) is diverging.
func classify(samples []Sample, slope float64) Trend {
	if len(samples) < 4 {
		return TrendInconclusive
	}
	tail := samples[len(samples)/2:]
	minT, maxT := tail[0].MinT, tail[0].MinT
	for _, s := range tail {
		if s.MinT < minT {
			minT = s.MinT
		}
		if s.MinT > maxT {
			maxT = s.MinT
		}
	}
	if minT == maxT {
		return TrendStabilized
	}
	last := samples[len(samples)-1]
	if slope > 0.02 && last.MinT == maxT {
		return TrendDiverging
	}
	return TrendInconclusive
}
