package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 5

// minRounds is the fewest measured rounds a run reports a median of.
const minRounds = 2

// result is what one run of one workload produced: the last line of the
// program's output, plus what only the full run and -diff read.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   values `json:"metrics"`

	// Extra carries the end-to-end metrics that exist on this workload
	// only; Rounds and Err explain the line above. None is part of the
	// result line.
	Extra  values    `json:"-"`
	Rounds int       `json:"-"`
	Walls  []float64 `json:"-"`
	Err    string    `json:"-"`
}

// runEndToEnd measures one workload for about seconds seconds and then runs
// its correctness gate. No span is recorded and no generator is wrapped on
// this path.
func runEndToEnd(def workloadDef, e env, seconds float64) *result {
	res := &result{Metrics: values{}, Extra: values{}}
	fail := func(err error) *result {
		res.Correct, res.Err = false, err.Error()
		res.Attempted = max(res.Attempted, 1)
		res.Failed = res.Attempted
		res.Extra.set(endToEnd, "failed_share", 1)
		return res
	}
	w := def.make(e)

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var walls, rates []float64
	extras := map[string][]float64{}
	var allocUnits int
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for {
		// Each round starts from a collected heap, so that whether the
		// previous round's history is freed during this one is not luck.
		runtime.GC()
		r, err := w.round()
		res.Attempted += r.attempted
		if err != nil {
			return fail(fmt.Errorf("round %d: %w", len(walls)+1, err))
		}
		allocUnits += r.allocUnits
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(r.ops)/(float64(r.ns)/1e9))
		for k, v := range r.extra {
			extras[k] = append(extras[k], v)
		}
		elapsed := time.Since(start).Seconds()
		if len(walls) >= minRounds && elapsed+elapsed/float64(len(walls))/2 >= seconds {
			break
		}
	}
	runtime.ReadMemStats(&after)
	rss := peakRSSMiB()
	res.Rounds, res.Walls = len(walls), walls

	// The first round grows the heap to the size the others reuse and reads
	// 10 to 40% slow; with three rounds or more it is timed and checked like
	// the rest but left out of the medians.
	from := 0
	if len(walls) >= 3 {
		from = 1
	}
	res.Metrics.set(endToEnd, "setup_s", median(setups))
	res.Metrics.set(endToEnd, "wall_s", median(walls[from:]))
	res.Metrics.set(endToEnd, "ops_per_s", median(rates[from:]))
	res.Metrics.set(endToEnd, "alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(allocUnits))
	res.Extra.set(endToEnd, "peak_rss_mb", rss)
	for k, vs := range extras {
		res.Extra.set(endToEnd, k, median(vs[from:]))
	}

	if err := w.verify(); err != nil {
		return fail(fmt.Errorf("correctness gate: %w", err))
	}
	res.Correct = true
	res.Extra.set(endToEnd, "failed_share", 0)
	return res
}

// peakRSSMiB is the process's maximum resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
