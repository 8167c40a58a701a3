package main

import (
	"fmt"
	"runtime"
	"time"
)

// runTraced is the traced run of one workload, separate from the end-to-end
// run. It takes the process counters over one real round of the workload
// (first, so that peak RSS is the round's), measures every layer probe, and
// re-drives the workload's pipeline stage by stage, three times without spans
// and three times with them: the spans of the last pass
// go to trace-<workload>.json, and the quicker pass of each kind gives
// trace.overhead_pct.
func runTraced(def workloadDef, e env, o options) *result {
	res := &result{Metrics: values{}, Extra: values{}, Attempted: 1}
	fail := func(err error) *result {
		res.Correct, res.Err, res.Failed = false, err.Error(), res.Attempted
		return res
	}
	// A run shorter than the contract's ten seconds shrinks every input.
	if o.seconds < 10 {
		e.scale *= max(o.seconds, 0.1) / 10
	}
	set := func(name string, v float64) { res.Metrics.set(perLayer, name, v) }

	w := def.make(e)
	if err := w.setup(); err != nil {
		return fail(fmt.Errorf("set-up: %w", err))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := w.round()
	runtime.ReadMemStats(&after)
	rss := peakRSSMiB()
	if err != nil {
		return fail(fmt.Errorf("round: %w", err))
	}
	if err := w.verify(); err != nil {
		return fail(fmt.Errorf("correctness gate: %w", err))
	}
	set("proc.gc_cycles", float64(after.NumGC-before.NumGC))
	set("proc.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	set("proc.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(r.allocUnits))
	set("proc.peak_rss_mb", rss)

	if err := runProbes(e, res.Metrics); err != nil {
		return fail(fmt.Errorf("layer probes: %w", err))
	}

	var quickest [2]time.Duration
	var lanes []*tracer
	for pass := 0; pass < 6; pass++ {
		on := pass%2 == 1
		runtime.GC()
		ls, wall, items, err := staged(def.name, e, on)
		if err != nil {
			return fail(fmt.Errorf("staged pipeline: %w", err))
		}
		k := pass % 2
		if quickest[k] == 0 || wall < quickest[k] {
			quickest[k] = wall
		}
		if on {
			lanes, res.Attempted = ls, items
		}
	}
	l := account(lanes)
	if err := writeTrace(o.out, def.name, lanes, l); err != nil {
		return fail(err)
	}
	set("trace.coverage_pct", l.CoveragePct)
	set("trace.overhead_pct", 100*(float64(quickest[1])/float64(quickest[0])-1))
	if l.CoveragePct < 90 {
		return fail(fmt.Errorf("stages cover %.1f%% of the staged wall clock, want at least 90", l.CoveragePct))
	}
	res.Correct = true
	return res
}
