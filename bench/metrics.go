package main

import (
	"math"
	"sort"
)

// metricDef names one metric: its unit, which direction is better, and (for
// end-to-end metrics) the share of the median by which it may worsen before
// -diff calls it a regression. Names are final: later issues refer to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is every end-to-end metric the benchmark reports. The first four
// hold their bound on every workload and are the ones BENCHMARK.json
// declares. The rest are printed by the full run and judged by -diff: one
// exists only on the workload named beside it and is never reported as 0
// elsewhere, peak_rss_mb swings threefold on explore-lin with the collector's
// luck, and failed_share is 0 on a correct run (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"alloc_bytes_per_op", "B/op", "lower", 0.10},

	{"peak_rss_mb", "MiB", "lower", 0.10},      // all
	{"nodes_per_s", "nodes/s", "higher", 0.25}, // explore-lin
	{"lat_p50_us", "us", "lower", 0.10},        // wire-closed
	{"lat_p99_us", "us", "lower", 0.15},        // wire-closed
	{"recover_s", "s", "lower", 0.25},          // live-durable
	{"failed_share", "share", "lower", 0},      // all; any rise is a regression
}

// universal is how many leading entries of endToEnd BENCHMARK.json declares.
const universal = 4

// perLayer is every per-layer metric, in the order the traced run prints
// them. Each is measured by timing calls into one module's public functions
// from the benchmark's own files.
var perLayer = []metricDef{
	{Name: "scenario.overhead_s", Unit: "s", Better: "lower"},
	{Name: "live.apply_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "live.record_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "live.shard_alloc_s", Unit: "s", Better: "lower"},
	{Name: "live.merge_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "live.client_phase_s", Unit: "s", Better: "lower"},
	{Name: "live.drain_s", Unit: "s", Better: "lower"},
	{Name: "live.verify_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "history.append_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "history.bytes_per_event", Unit: "B/event", Better: "lower"},
	{Name: "check.fi.feed_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "check.fi.fold_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "check.fi.window_us_per_check", Unit: "us/check", Better: "lower"},
	{Name: "check.fi.windows_checked", Unit: "count", Better: "higher"},
	{Name: "check.fi.shard_speedup", Unit: "x", Better: "higher"},
	{Name: "check.reg.feed_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "check.reg.fold_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "check.reg.window_us_per_check", Unit: "us/check", Better: "lower"},
	{Name: "check.reg.windows_checked", Unit: "count", Better: "higher"},
	{Name: "wal.append_never_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "wal.append_i4096_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "wal.bytes_per_event", Unit: "B/event", Better: "lower"},
	{Name: "wal.recover_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "wal.resume_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "server.req_codec_ns", Unit: "ns/op", Better: "lower"},
	{Name: "server.resp_codec_ns", Unit: "ns/op", Better: "lower"},
	{Name: "server.codec_allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "server.rtt_c1_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.echo_floor_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.residual_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.mon_windows_skipped", Unit: "count", Better: "lower"},
	{Name: "server.mon_sample_every_max", Unit: "count", Better: "lower"},
	{Name: "server.overloaded", Unit: "count", Better: "lower"},
	{Name: "loadgen.client_side_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.retries", Unit: "count", Better: "lower"},
	{Name: "loadgen.reconnects", Unit: "count", Better: "lower"},
	{Name: "loadgen.lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lat_p95_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lat_max_us", Unit: "us", Better: "lower"},
	{Name: "explore.nodes", Unit: "count", Better: "higher"},
	{Name: "explore.leaves", Unit: "count", Better: "higher"},
	{Name: "explore.walk_ns_per_node", Unit: "ns/node", Better: "lower"},
	{Name: "explore.lin_us_per_leaf", Unit: "us/leaf", Better: "lower"},
	{Name: "explore.nodes_per_s", Unit: "nodes/s", Better: "higher"},
	{Name: "explore.nodes_per_s_w1", Unit: "nodes/s", Better: "higher"},
	{Name: "explore.par_speedup", Unit: "x", Better: "higher"},
	{Name: "sim.advance_undo_ns", Unit: "ns/op", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "trace.coverage_pct", Unit: "%", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func metricByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values maps metric names to measurements.
type values map[string]value

// set stores v under the unit its definition declares; a name no table
// declares is a bug in the benchmark.
func (vs values) set(defs []metricDef, name string, v float64) {
	d, ok := metricByName(defs, name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	vs[name] = value{Value: v, Unit: d.Unit}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is a metric over repetitions: what the full run prints and -diff
// compares.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	CV     float64   `json:"cv"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, Median: median(xs), N: len(xs), Values: xs}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	mean := 0.0
	for _, x := range xs {
		s.Min, s.Max = math.Min(s.Min, x), math.Max(s.Max, x)
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) > 1 && mean != 0 {
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		s.CV = math.Sqrt(ss/float64(len(xs)-1)) / math.Abs(mean)
	}
	return s
}

// percentile returns the q-quantile of sorted (nearest rank below).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
