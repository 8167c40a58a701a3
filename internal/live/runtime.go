package live

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/faults"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// OpGen generates the i-th operation of a client. r is the client's private
// deterministic RNG stream (derived from the run seed and the client id),
// so the operation sequence of every client is a pure function of the seed.
type OpGen func(client, i int, r *rand.Rand) spec.Op

// FetchIncGen returns the generator for pure fetch&increment workloads.
func FetchIncGen() OpGen {
	op := spec.MakeOp(spec.MethodFetchInc)
	return func(int, int, *rand.Rand) spec.Op { return op }
}

// RegisterMixGen returns a read/write mix for register-shaped objects:
// writes (with values drawn from [1, valueRange]) occur with probability
// writeRatio, reads otherwise.
func RegisterMixGen(writeRatio float64, valueRange int64) OpGen {
	read := spec.MakeOp(spec.MethodRead)
	return func(_, _ int, r *rand.Rand) spec.Op {
		if r.Float64() < writeRatio {
			return spec.MakeOp1(spec.MethodWrite, 1+r.Int63n(valueRange))
		}
		return read
	}
}

// Config describes one live stress run.
type Config struct {
	// Object is the shared object under test.
	Object Object
	// Clients is the number of client goroutines (default 4).
	Clients int
	// Ops is the per-client operation budget (default 1000).
	Ops int
	// Gen generates each client's operations (default FetchIncGen).
	Gen OpGen
	// Seed pins the per-client RNG streams, the response choices of
	// eventually linearizable objects, and every fault-plane draw.
	Seed int64
	// Rate, when positive, switches to open-loop mode: each client issues
	// operations at Rate ops/second (scheduled at fixed intervals, with
	// latency measured from the scheduled start, so queueing delay counts).
	// Zero means closed loop: each client issues its next operation as soon
	// as the previous one returns. Ignored under Serial.
	Rate float64
	// Monitor tunes the online windowed monitor.
	Monitor check.IncrementalConfig
	// MonitorSpec selects the monitor implementation (full, sample:N, none —
	// see check.ParseMonitorSpec). The zero value is the exhaustive
	// monitor. Kind none disables online checking: the run records and
	// merges only (the configuration for pure throughput measurement).
	MonitorSpec check.MonitorSpec
	// LatencySample records one latency sample every LatencySample
	// operations per client. Zero, the default, picks the stride
	// LatencyStride gives: the largest power of two that still leaves each
	// client at least 1 024 samples (1 below 2 048 ops, 512 at 1M).
	LatencySample int
	// Faults is the injected fault plane (nil: a perfect machine). Every
	// fault decision is a pure function of (Seed, commit ticket, client,
	// op index) — see package faults.
	Faults *faults.Spec
	// Sink, when non-nil, receives every merged event with its merge
	// position — the durable commit-log backend (wal.Log implements it).
	// Run hands it to the run's Pipeline, which closes it on every path.
	Sink CommitSink
	// StartSeq initializes the commit sequencer. Continuation runs resume
	// ticket numbering from a recovered log's last commit (Resume.NextSeq);
	// fresh runs leave it zero.
	StartSeq uint64
	// ProcBase offsets client proc ids: client c records as proc
	// ProcBase+c. Continuation runs set it to the crashed run's client
	// count so the stitched history never reuses a proc id that may still
	// have an operation pending from before the crash.
	ProcBase int
	// History, when non-nil, is a recovered history prefix the run extends
	// in place; the Pipeline primes the monitor with it before any client
	// starts.
	History *history.History
	// Serial switches to the deterministic driver: clients run round-robin
	// on the calling goroutine, so for a fixed seed the merged history (and
	// any WAL written through Sink) is byte-identical across reruns — the
	// mode crash-recovery acceptance pins down. Fault semantics carry over
	// deterministically; see runSerial.
	Serial bool
}

func (c *Config) fill() {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Ops <= 0 {
		c.Ops = 1000
	}
	if c.Gen == nil {
		c.Gen = FetchIncGen()
	}
	c.LatencySample = LatencyStride(c.Ops, c.LatencySample)
}

// minLatencySamples is the fewest latency samples the default stride
// leaves a client.
const minLatencySamples = 1024

// LatencyStride is the latency sampling stride of a client that runs ops
// operations: n itself when n ≥ 1, else the largest power of two s with
// ops/s ≥ 1 024, so a long run times a sample of its operations and a short
// one times them all. Both the live and the networked client loops use it.
func LatencyStride(ops, n int) int {
	if n >= 1 {
		return n
	}
	s := 1
	for ops/(2*s) >= minLatencySamples {
		s *= 2
	}
	return s
}

// Result is the outcome of a live run.
type Result struct {
	// History is the merged history (ordered by commit ticket, invocations
	// by sequencer stamp). On a violation stop it covers the run up to and
	// including the offending window; on an injected crash, up to and
	// including the crash commit. A continuation run's History includes the
	// recovered prefix it was seeded with.
	History *history.History
	// Ops counts completed operations; ClientOps breaks them down per
	// client.
	Ops       int
	ClientOps []int
	// Elapsed is the wall-clock run time, Throughput the completed
	// operations per second.
	Elapsed    time.Duration
	Throughput float64
	// LatP50/P95/P99/Max are latency percentiles over the sampled
	// operations (closed loop: call duration; open loop: from scheduled
	// start).
	LatP50, LatP95, LatP99, LatMax time.Duration
	// Verdict is the online monitor's trend over per-window MinT samples
	// (zero under monitor spec none); MonSkipped counts the windows whose
	// MinT search a sampling monitor skipped.
	Verdict    check.Verdict
	MonSkipped int
	// Violation is the offending window when the monitor stopped the run.
	Violation *check.WindowViolation
	// Stopped reports that the monitor stopped the run early at a
	// violation (client errors surface as Run's error instead).
	Stopped bool
	// Crashed reports that the injected crash-at-commit fault killed the
	// run; CrashTicket is the commit ticket it died at. In-flight
	// operations are lost — only History up to the crash commit and
	// whatever Sink persisted survive.
	Crashed     bool
	CrashTicket uint64
}

// runEnv is the driver-independent state of one run: the commit sequencer,
// the stop flag, the (possibly pre-seeded) history and the commit pipeline
// both drivers funnel every merged event through.
type runEnv struct {
	seq  atomic.Uint64
	stop atomic.Bool
	h    *history.History
	pipe *Pipeline
}

// finish ends the pipeline and assembles the Result. The history ends
// where the pipeline stopped: a drain may have merged past the stop.
func (env *runEnv) finish(clientOps []int, elapsed time.Duration, lats [][]int64) (*Result, error) {
	if err := env.pipe.Finish(); err != nil {
		return nil, err
	}
	env.h.Truncate(env.pipe.Events())
	res := &Result{
		History:   env.h,
		ClientOps: clientOps,
		Elapsed:   elapsed,
		Violation: env.pipe.Violation(),
	}
	res.Stopped = res.Violation != nil
	res.CrashTicket, res.Crashed = env.pipe.Crashed()
	for _, n := range clientOps {
		res.Ops += n
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Ops) / elapsed.Seconds()
	}
	if mon := env.pipe.Monitor(); mon != nil {
		res.Verdict, res.MonSkipped = mon.Verdict(), mon.Sampling().Skipped
	}
	res.LatP50, res.LatP95, res.LatP99, res.LatMax = Percentiles(lats...)
	return res, nil
}

// clientError carries the victim's id so aggregated diagnostics name it.
type clientError struct {
	client int
	err    error
}

// joinClientErrors aggregates every client's failure (sorted by client id)
// instead of first-error-wins, so a multi-client incident names all
// victims.
func joinClientErrors(cerrs []clientError) error {
	if len(cerrs) == 0 {
		return nil
	}
	sort.SliceStable(cerrs, func(i, j int) bool { return cerrs[i].client < cerrs[j].client })
	errs := make([]error, len(cerrs))
	for i, ce := range cerrs {
		errs[i] = ce.err
	}
	return errors.Join(errs...)
}

// Run executes one live stress run: Clients goroutines apply Ops operations
// each to the shared Object, per-client shards record invocation stamps and
// commit tickets, and the merging loop feeds the growing history to the
// commit sink and the online monitor. A monitor violation stops the clients
// and returns with the offending window (see Shrink for what to do with
// it); an injected crash stops the run with Result.Crashed set — recover
// the WAL with wal.Recover + Resume to continue.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	var crashAt uint64
	if cfg.Faults != nil {
		crashAt = cfg.Faults.CrashAtCommit
	}
	pipe, err := NewPipeline(cfg.Object, cfg.MonitorSpec, cfg.Monitor, cfg.Sink, crashAt, cfg.History)
	if err != nil {
		return nil, err
	}
	defer pipe.Abort()
	env := &runEnv{h: cfg.History, pipe: pipe}
	env.seq.Store(cfg.StartSeq)
	if env.h == nil {
		env.h = history.New()
	}
	env.h.Reserve(env.h.Len() + 2*cfg.Clients*cfg.Ops)
	if cfg.Serial {
		return runSerial(&cfg, env)
	}

	shards := make([]*Shard, cfg.Clients)
	lats := make([][]int64, cfg.Clients)
	clientOps := make([]int, cfg.Clients)
	for c := range shards {
		shards[c] = NewShard(2 * cfg.Ops)
		lats[c] = make([]int64, 0, cfg.Ops/cfg.LatencySample+1)
	}

	var errMu sync.Mutex
	var cerrs []clientError
	fail := func(client int, err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		cerrs = append(cerrs, clientError{client, err})
		errMu.Unlock()
		env.stop.Store(true)
	}
	// active/stalled let a stalled client detect that nobody is left to
	// move the commit ticket past its window: when every still-running
	// client is stalled (or it is the last one), waiting would deadlock, so
	// the stall expires.
	var active, stalled atomic.Int64
	active.Store(int64(cfg.Clients))

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer active.Add(-1)
			defer shards[c].Finish()
			// The op count and latencies stay in locals until the client
			// ends: the clients' slots of clientOps and lats share a cache
			// line, and writing it on every operation would have the
			// clients' cores trade it for the whole run.
			ops, lat := 0, lats[c]
			defer func() { clientOps[c], lats[c] = ops, lat }()
			r := rand.New(rand.NewSource(cfg.Seed ^ int64(c+1)*0x5DEECE66D))
			sh := shards[c]
			proc := cfg.ProcBase + c
			var interval time.Duration
			if cfg.Rate > 0 {
				interval = time.Duration(float64(time.Second) / cfg.Rate)
			}
			for i := 0; i < cfg.Ops; i++ {
				if env.stop.Load() {
					return
				}
				if f := cfg.Faults; f != nil {
					if j := f.Jitter(cfg.Seed, c, i); j > 0 {
						time.Sleep(time.Duration(j) * time.Microsecond)
					}
					if target := f.StallTarget(c, env.seq.Load()); target > 0 {
						stalled.Add(1)
						for env.seq.Load() < target && !env.stop.Load() &&
							stalled.Load() < active.Load() {
							time.Sleep(10 * time.Microsecond)
						}
						stalled.Add(-1)
						if env.stop.Load() {
							return
						}
					}
				}
				op := cfg.Gen(c, i, r)
				// The clock stays off the hot path: closed-loop ops read it
				// only when sampled; open-loop ops know their scheduled start
				// for free. Times are monotonic offsets from start.
				sample := i%cfg.LatencySample == 0
				var t0 time.Duration
				if interval > 0 {
					t0 = time.Duration(i) * interval
					if d := t0 - time.Since(start); d > 0 {
						time.Sleep(d)
					}
				} else if sample {
					t0 = time.Since(start)
				}
				if !sh.PushInvoke(env.seq.Load(), op) {
					fail(c, fmt.Errorf("live: client %d shard overflow", c))
					return
				}
				resp, ticket, err := cfg.Object.Apply(proc, op, &env.seq)
				if err != nil {
					fail(c, fmt.Errorf("live: client %d op %d (ticket %d): %w", c, i, env.seq.Load(), err))
					return
				}
				if !sh.PushCommit(ticket, resp, op) {
					fail(c, fmt.Errorf("live: client %d shard overflow", c))
					return
				}
				ops++
				if sample {
					lat = append(lat, int64(time.Since(start)-t0))
				}
			}
		}(c)
	}

	// Merge-and-monitor loop (runs on this goroutine) until every client
	// has finished its shard, or the pipeline stops the run.
	err = NewMerger(cfg.Object.Name(), cfg.ProcBase, shards).Run(env.h, pipe.Positions(), func(pos []uint64) error {
		return pipe.Advance(env.h, pos)
	}, nil)
	if err != nil {
		env.stop.Store(true)
	}
	wg.Wait()
	if err != nil && err != ErrStop {
		return nil, err
	}
	elapsed := time.Since(start)
	if err := joinClientErrors(cerrs); err != nil {
		return nil, err
	}
	return env.finish(clientOps, elapsed, lats)
}

// runSerial drives the clients round-robin on the calling goroutine. With
// no goroutine races left, a fixed seed determines the merged history —
// and any WAL written through the sink — byte for byte across reruns,
// which is the mode crash-recovery acceptance pins down. Fault semantics
// carry over deterministically: jitter defers a client's turn by a pure
// (seed, client, op) draw capped at 8 turns, a stalled client skips its
// turns while the commit ticket is inside the window (the lowest-indexed
// unfinished client is forced onward when everyone left is stalled), and
// crash-at-K stops the run exactly at commit K. Rate is ignored —
// open-loop pacing is meaningless without concurrency.
func runSerial(cfg *Config, env *runEnv) (*Result, error) {
	lats := make([][]int64, cfg.Clients)
	clientOps := make([]int, cfg.Clients)
	rngs := make([]*rand.Rand, cfg.Clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(cfg.Seed ^ int64(c+1)*0x5DEECE66D))
		lats[c] = make([]int64, 0, cfg.Ops/cfg.LatencySample+1)
	}
	next := make([]int, cfg.Clients)   // per-client next op index
	wait := make([]int, cfg.Clients)   // jitter turns left before the next op
	armed := make([]bool, cfg.Clients) // jitter drawn for the pending op
	objName := cfg.Object.Name()
	start := time.Now()
	remaining := cfg.Clients * cfg.Ops
	forced := -1
	var runErr error

outer:
	for remaining > 0 {
		progress := false
		for c := 0; c < cfg.Clients; c++ {
			i := next[c]
			if i >= cfg.Ops {
				continue
			}
			if wait[c] > 0 {
				wait[c]--
				progress = true
				continue
			}
			if f := cfg.Faults; f != nil {
				if !armed[c] {
					armed[c] = true
					if j := f.Jitter(cfg.Seed, c, i); j > 0 {
						wait[c] = min(j, 8)
						progress = true
						continue
					}
				}
				if c != forced {
					if target := f.StallTarget(c, env.seq.Load()); target > 0 {
						continue
					}
				}
			}
			forced = -1
			op := cfg.Gen(c, i, rngs[c])
			sample := i%cfg.LatencySample == 0
			var t0 time.Duration
			if sample {
				t0 = time.Since(start)
			}
			proc := cfg.ProcBase + c
			stamp := env.seq.Load()
			if err := env.h.Invoke(proc, objName, op); err != nil {
				runErr = fmt.Errorf("live: serial merge: %w", err)
				break outer
			}
			if runErr = env.pipe.Advance(env.h, []uint64{stamp}); runErr != nil {
				break outer
			}
			resp, ticket, err := cfg.Object.Apply(proc, op, &env.seq)
			if err != nil {
				runErr = fmt.Errorf("live: client %d op %d (ticket %d): %w", c, i, env.seq.Load(), err)
				break outer
			}
			if err := env.h.Respond(proc, resp); err != nil {
				runErr = fmt.Errorf("live: serial merge: %w", err)
				break outer
			}
			if runErr = env.pipe.Advance(env.h, []uint64{ticket}); runErr != nil {
				break outer
			}
			next[c] = i + 1
			armed[c] = false
			remaining--
			clientOps[c]++
			if sample {
				lats[c] = append(lats[c], int64(time.Since(start)-t0))
			}
			progress = true
		}
		if !progress {
			// Every unfinished client is stalled; expire the earliest stall
			// deterministically (mirrors the goroutine driver's all-stalled
			// escape) so the run cannot livelock.
			forced = -1
			for c := range next {
				if next[c] < cfg.Ops {
					forced = c
					break
				}
			}
			if forced < 0 {
				break
			}
		}
	}
	elapsed := time.Since(start)
	if runErr != nil && runErr != ErrStop {
		return nil, runErr
	}
	return env.finish(clientOps, elapsed, lats)
}

// Percentiles merges latency samples (one slice per client) and returns
// their p50/p95/p99/max; all zero when nothing was sampled.
func Percentiles(samples ...[]int64) (p50, p95, p99, max time.Duration) {
	n := 0
	for _, l := range samples {
		n += len(l)
	}
	if n == 0 {
		return 0, 0, 0, 0
	}
	all := make([]int64, 0, n)
	for _, l := range samples {
		all = append(all, l...)
	}
	slices.Sort(all)
	at := func(q float64) time.Duration {
		i := int(q * float64(len(all)-1))
		return time.Duration(all[i])
	}
	return at(0.50), at(0.95), at(0.99), time.Duration(all[len(all)-1])
}

// Verify re-executes h serially, in its recorded commit order, against a
// fresh instance of obj and reports whether every derived response is the
// recorded one: the package's reproducibility contract, which a
// commit-deterministic object keeps and fault injection never breaks
// (stalls and jitter only reshape the recorded commit order, and a crash
// only truncates it).
func Verify(obj Object, h *history.History) (bool, error) {
	fresh, err := obj.Fresh()
	if err != nil {
		return false, err
	}
	var seq atomic.Uint64
	for i := 0; i < h.Len(); i++ {
		e := h.Event(i)
		if e.Kind != history.KindRespond {
			continue
		}
		resp, _, err := fresh.Apply(e.Proc, h.Op(i), &seq)
		if err != nil {
			return false, fmt.Errorf("live: verify event %d: %w", i, err)
		}
		if resp != e.Resp {
			return false, nil
		}
	}
	return true, nil
}
