package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/explore"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/loadgen"
	"github.com/elin-go/elin/internal/scenario"
	"github.com/elin-go/elin/internal/server"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
	"github.com/elin-go/elin/internal/wal"
)

// The layer probes time calls into one module's public functions at a time.
// Each mirrors what the runtime does before the call it times (a reserved
// history, pre-sized shards) and starts from a collected heap: without
// Reserve, Merger.Drain reads 1.5 µs an event where the runtime pays 0.09.
// A probe's input is the same on every workload; the traced run of each
// workload measures them all again, so the full run has six samples of each.

// timed runs f on a collected heap and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// medianOf repeats f and returns the median of what it returns.
func medianOf(reps int, f func() (float64, error)) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		x, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// runProbes measures every per-layer metric that does not depend on which
// workload is being traced.
func runProbes(e env, out values) error {
	set := func(name string, v float64) { out.set(perLayer, name, v) }
	probes := []func(env, func(string, float64)) error{
		probeScenario, probeLiveLoops, probeMonitoredRun, probeRegister,
		probeCodec, probeRoundTrip, probeFleet, probeExplore,
	}
	for _, p := range probes {
		if err := p(e, set); err != nil {
			return err
		}
	}
	return nil
}

// probeScenario: what scenario.Run adds around the runtime's own clock on
// the record-only path (resolution, allocation, report building).
func probeScenario(e env, set func(string, float64)) error {
	sc := liveScenario(e, e.n(sizes.probeRecordOps), "none")
	over, err := medianOf(3, func() (float64, error) {
		var rep *scenario.Report
		wall, err := timed(func() (err error) {
			rep, err = scenario.Run("live", sc)
			return err
		})
		if err != nil {
			return 0, err
		}
		return wall.Seconds() - float64(rep.Perf.NS)/1e9, nil
	})
	set("scenario.overhead_s", over)
	return err
}

// probeLiveLoops: one goroutine looping over each call a client makes per
// operation, the allocation of a round's shards, a drain of finished shards
// into a reserved history, and appends into a reserved history.
func probeLiveLoops(e env, set func(string, float64)) error {
	n := e.n(sizes.probeLoopOps)
	op := spec.MakeOp(spec.MethodFetchInc)
	obj := live.NewAtomicFetchInc("C", 0)
	var seq atomic.Uint64
	d, err := timed(func() error {
		for i := 0; i < n; i++ {
			if _, _, err := obj.Apply(0, op, &seq); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("live.apply_ns_per_op", float64(d)/float64(n))

	n = e.n(sizes.probeShardOps)
	var shards []*live.Shard
	d, _ = timed(func() error {
		for c := 0; c < clients; c++ {
			shards = append(shards, live.NewShard(2*n))
		}
		return nil
	})
	set("live.shard_alloc_s", d.Seconds())

	// Two clients taking turns: client c's i-th operation is stamped with the
	// commits before it and draws the next ticket.
	d, err = timed(func() error {
		ticket := uint64(0)
		for i := 0; i < n; i++ {
			for _, sh := range shards {
				if !sh.PushInvoke(ticket, op) || !sh.PushCommit(ticket+1, int64(ticket), op) {
					return fmt.Errorf("probe: shard overflow")
				}
				ticket++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("live.record_ns_per_op", float64(d)/float64(clients*n))

	for _, sh := range shards {
		sh.Finish()
	}
	h := history.New()
	h.Reserve(2 * clients * n)
	m := live.NewMerger("C", 0, shards)
	d, err = timed(func() error {
		_, err := m.Drain(h, func(history.Event, uint64) error { return nil })
		return err
	})
	if err != nil {
		return err
	}
	if h.Len() != 2*clients*n {
		return fmt.Errorf("probe: drained %d events, want %d", h.Len(), 2*clients*n)
	}
	set("live.merge_ns_per_event", float64(d)/float64(h.Len()))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	h2 := history.New()
	h2.Reserve(h.Len())
	for i := 0; i < h.Len(); i++ {
		if err := h2.Append(h.Event(i)); err != nil {
			return err
		}
	}
	d = time.Since(t0)
	runtime.ReadMemStats(&after)
	set("history.append_ns_per_event", float64(d)/float64(h.Len()))
	set("history.bytes_per_event", float64(after.TotalAlloc-before.TotalAlloc)/float64(h.Len()))
	return nil
}

// probeMonitoredRun: one monitored live.Run whose generator is wrapped to
// stamp each client's first and last operation, which splits the runtime's
// elapsed time into what clients see and what the monitor needs to catch up.
// The history it records is then the input of live.Verify, of the three
// fetch&inc monitors and of the WAL.
func probeMonitoredRun(e env, set func(string, float64)) error {
	ops := e.n(sizes.probeLiveOps)
	sc := liveScenario(e, ops, "full")
	obj, err := freshObject(sc)
	if err != nil {
		return err
	}
	first := make([]time.Time, clients)
	last := make([]time.Time, clients)
	inner := live.FetchIncGen()
	runtime.GC()
	res, err := live.Run(live.Config{
		Object: obj, Clients: clients, Ops: ops, Seed: e.seed,
		Monitor: check.IncrementalConfig{Stride: sc.Stride},
		Gen: func(c, i int, r *rand.Rand) spec.Op {
			if i == 0 {
				first[c] = time.Now()
			}
			if i == ops-1 {
				last[c] = time.Now()
			}
			return inner(c, i, r)
		},
	})
	if err != nil {
		return err
	}
	if res.Violation != nil || res.Ops != clients*ops {
		return fmt.Errorf("probe: monitored run completed %d ops with violation %v", res.Ops, res.Violation)
	}
	begin, end := first[0], last[0]
	for c := 1; c < clients; c++ {
		if first[c].Before(begin) {
			begin = first[c]
		}
		if last[c].After(end) {
			end = last[c]
		}
	}
	phase := end.Sub(begin)
	set("live.client_phase_s", phase.Seconds())
	set("live.drain_s", (res.Elapsed - phase).Seconds())

	var same bool
	d, err := timed(func() (err error) {
		same, err = live.Verify(obj, res.History)
		return err
	})
	if err != nil {
		return err
	}
	if !same {
		return fmt.Errorf("probe: replay differs from the monitored run")
	}
	set("live.verify_ns_per_event", float64(d)/float64(res.History.Len()))

	events := res.History.Events()
	if err := probeMonitors("check.fi", obj.Spec(), check.IncrementalConfig{Stride: sc.Stride}, events, true, set); err != nil {
		return err
	}
	return probeWAL(e, sc, events, set)
}

// probeMonitors feeds events through three monitors built by NewMonitor:
// full; sample:1000000, which folds every event and checks one window, so
// its time is the fold's; and shard:K at K = GOMAXPROCS. What one window
// check costs is the difference of the first two over the windows checked.
func probeMonitors(prefix string, obj spec.Object, cfg check.IncrementalConfig, events []history.Event, sharded bool, set func(string, float64)) error {
	run := func(ms check.MonitorSpec) (check.Monitor, time.Duration, error) {
		runtime.GC()
		m, d, err := feedAll(ms, obj, cfg, events)
		if err == nil && m.Violation() != nil {
			err = fmt.Errorf("probe: %s monitor %s flagged a correct history: %s", prefix, ms, m.Violation())
		}
		return m, d, err
	}
	full, fullD, err := run(check.MonitorSpec{})
	if err != nil {
		return err
	}
	_, foldD, err := run(check.MonitorSpec{Kind: check.MonitorSample, N: 1_000_000})
	if err != nil {
		return err
	}
	n := float64(len(events))
	set(prefix+".feed_ns_per_event", float64(fullD)/n)
	set(prefix+".fold_ns_per_event", float64(foldD)/n)
	set(prefix+".window_us_per_check", float64(fullD-foldD)/1e3/float64(max(full.Checks(), 1)))
	set(prefix+".windows_checked", float64(full.Checks()))
	if sharded {
		_, shardD, err := run(check.MonitorSpec{Kind: check.MonitorShardWindow, N: runtime.GOMAXPROCS(0)})
		if err != nil {
			return err
		}
		set(prefix+".shard_speedup", float64(fullD)/float64(shardD))
	}
	return nil
}

// probeRegister: the same monitors on the generic engine's input.
func probeRegister(e env, set func(string, float64)) error {
	events := registerHistory(e.seed, e.n(sizes.probeRegOps))
	return probeMonitors("check.reg", registerObject, registerMonitor, events, false, set)
}

// probeWAL: the recorded events appended under each sync policy, read back
// and replayed. The page cache makes single samples swing twofold, so every
// figure is a median of probeWALRepeat.
func probeWAL(e env, sc scenario.Scenario, events []history.Event, set func(string, float64)) error {
	// A response's position is its commit ticket and an invocation's is the
	// number of commits before it, as the merger hands them to a sink.
	pos := make([]uint64, len(events))
	commits := uint64(0)
	for i, ev := range events {
		if ev.Kind == history.KindRespond {
			commits++
		}
		pos[i] = commits
	}
	path := filepath.Join(e.tmp, "probe.wal")
	defer os.Remove(path)
	n := float64(len(events))
	appendAll := func(pol wal.SyncPolicy) (float64, error) {
		return medianOf(sizes.probeWALRepeat, func() (float64, error) {
			d, err := timed(func() error {
				log, err := wal.Create(path, wal.Header{Object: sc.Impl, ObjName: "C", Procs: clients, Ops: sc.Ops, Seed: sc.Seed}, pol)
				if err != nil {
					return err
				}
				for i, ev := range events {
					if err := log.Append(ev, pos[i]); err != nil {
						log.Close()
						return err
					}
				}
				return log.Close()
			})
			return float64(d) / n, err
		})
	}
	never, err := appendAll(wal.SyncNever)
	if err != nil {
		return err
	}
	set("wal.append_never_ns_per_event", never)
	interval, err := appendAll(probeSyncPolicy)
	if err != nil {
		return err
	}
	set("wal.append_i4096_ns_per_event", interval)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	set("wal.bytes_per_event", float64(st.Size())/n)

	var rec *wal.Recovered
	recoverNS, err := medianOf(sizes.probeWALRepeat, func() (float64, error) {
		d, err := timed(func() (err error) {
			rec, err = wal.Recover(path)
			return err
		})
		if err == nil && (rec.Torn || rec.Frames != len(events)) {
			err = fmt.Errorf("probe: recovered %d frames torn=%v, want %d intact", rec.Frames, rec.Torn, len(events))
		}
		return float64(d) / n, err
	})
	if err != nil {
		return err
	}
	set("wal.recover_ns_per_event", recoverNS)
	resumeNS, err := medianOf(sizes.probeWALRepeat, func() (float64, error) {
		obj, err := freshObject(sc)
		if err != nil {
			return 0, err
		}
		d, err := timed(func() error {
			_, err := live.Resume(obj, rec)
			return err
		})
		return float64(d) / n, err
	})
	set("wal.resume_ns_per_event", resumeNS)
	return err
}

// probeCodec: a request and a response through the frame functions and a
// buffer, with no socket: encode, frame, unframe, decode.
func probeCodec(e env, set func(string, float64)) error {
	n := e.n(sizes.probeCodecOps)
	var wire bytes.Buffer
	br := bufio.NewReader(&wire)
	op := spec.MakeOp(spec.MethodFetchInc)
	var buf []byte
	request := func(i int) error {
		buf = server.AppendRequest(buf[:0], server.Request{OpIndex: uint64(i), Op: op})
		if err := server.WriteFrame(&wire, buf); err != nil {
			return err
		}
		payload, err := server.ReadFrame(br)
		if err != nil {
			return err
		}
		_, err = server.DecodeRequest(payload)
		return err
	}
	response := func(i int) error {
		buf = server.AppendResponse(buf[:0], server.Response{OpIndex: uint64(i), Resp: int64(i), Ticket: uint64(i + 1)})
		if err := server.WriteFrame(&wire, buf); err != nil {
			return err
		}
		payload, err := server.ReadFrame(br)
		if err != nil {
			return err
		}
		_, err = server.DecodeResponse(payload)
		return err
	}
	loop := func(f func(int) error) func() error {
		return func() error {
			for i := 0; i < n; i++ {
				if err := f(i); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reqD, err := timed(loop(request))
	if err != nil {
		return err
	}
	respD, err := timed(loop(response))
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	set("server.req_codec_ns", float64(reqD)/float64(n))
	set("server.resp_codec_ns", float64(respD)/float64(n))
	// One operation is a request and a response; the count is the one
	// testing.AllocsPerRun takes, without its switch to one CPU.
	set("server.codec_allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(n))
	return nil
}

// probeRoundTrip: the benchmark's single-connection client against a real
// server.Server and against the bare echo listener, in alternating blocks so
// that a slow second on the box slows both. The difference of the medians is
// what the server costs on top of the kernel.
func probeRoundTrip(e env, set func(string, float64)) error {
	ops := e.n(sizes.probeWireOps)
	sc := liveScenario(e, ops, "full")
	sc.Procs = 1
	srv, err := scenario.BuildServer(sc)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv.Serve(ln)
	floor, err := newEchoListener()
	if err != nil {
		srv.Shutdown()
		return err
	}
	alternate := func() (served, bare *wireDriver, err error) {
		lanes := newTracers(true, "probe", 2)
		if served, err = newWireDriver(lanes[0], ln.Addr().String(), 0, e.seed, true); err != nil {
			return nil, nil, err
		}
		defer served.close()
		if bare, err = newWireDriver(lanes[1], floor.ln.Addr().String(), 0, e.seed, true); err != nil {
			return nil, nil, err
		}
		defer bare.close()
		runtime.GC()
		const block = 500
		for done := 0; done < ops; done += block {
			n := min(block, ops-done)
			if err := served.drive(n); err != nil {
				return nil, nil, err
			}
			if err := bare.drive(n); err != nil {
				return nil, nil, err
			}
		}
		return served, bare, nil
	}
	served, bare, err := alternate()
	floor.stop()
	sum, serr := srv.Shutdown()
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	if !serverMerged(sum.Events, ops) || sum.Violation != nil {
		return fmt.Errorf("probe: server merged %d events (want %d), violation %v", sum.Events, 2*ops, sum.Violation)
	}
	sort.Float64s(served.rttUS)
	sort.Float64s(bare.rttUS)
	rtt, echoed := percentile(served.rttUS, 0.5), percentile(bare.rttUS, 0.5)
	set("server.rtt_c1_p50_us", rtt)
	set("server.echo_floor_p50_us", echoed)
	set("server.residual_p50_us", rtt-echoed)
	set("loadgen.client_side_us", float64(served.clientNS)/1e3/float64(ops))
	return nil
}

// probeFleet: the loadgen fleet against the server, as the serve engine
// wires them, for the counters and the tail that scenario reports drop.
func probeFleet(e env, set func(string, float64)) error {
	sc := liveScenario(e, e.n(sizes.probeFleetOps), "full")
	srv, err := scenario.BuildServer(sc)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv.Serve(ln)
	runtime.GC()
	res, lerr := loadgen.Run(loadgen.Config{
		Addr: ln.Addr().String(), Clients: clients, Ops: sc.Ops,
		Gen: live.FetchIncGen(), Seed: e.seed, LatencySample: 1,
	})
	sum, err := srv.Shutdown()
	if lerr != nil {
		return lerr
	}
	if err != nil {
		return err
	}
	if res.Lost != 0 || res.Duplicated != 0 || !serverMerged(sum.Events, clients*sc.Ops) {
		return fmt.Errorf("probe: fleet lost %d, duplicated %d, server merged %d events", res.Lost, res.Duplicated, sum.Events)
	}
	overloaded := 0.0
	if sum.Overloaded {
		overloaded = 1
	}
	set("server.mon_windows_skipped", float64(sum.MonSkipped))
	set("server.mon_sample_every_max", float64(sum.MonMaxSampleEvery))
	set("server.overloaded", overloaded)
	set("loadgen.retries", float64(res.Retries))
	set("loadgen.reconnects", float64(res.Reconnects))
	set("loadgen.lat_p50_us", float64(res.P50NS)/1e3)
	set("loadgen.lat_p95_us", float64(res.P95NS)/1e3)
	set("loadgen.lat_p99_us", float64(res.P99NS)/1e3)
	set("loadgen.lat_max_us", float64(res.MaxNS)/1e3)
	return nil
}

// probeExplore: the tree walked with a callback that does nothing, the
// same tree with every leaf judged on one worker and on all, and one
// Advance and Undo of the simulator.
func probeExplore(e env, set func(string, float64)) error {
	size := e.exploreSize(sizes.exploreSmall)
	root, _, err := exploreRoot(size)
	if err != nil {
		return err
	}
	var st explore.Stats
	walk, err := timed(func() (err error) {
		st, err = explore.Leaves(root, size.depth, explore.Config{Workers: 1}, func(*sim.System) error { return nil })
		return err
	})
	if err != nil {
		return err
	}
	if st.Nodes != size.nodes || st.Leaves != size.leaves {
		return fmt.Errorf("probe: walked %d nodes and %d leaves, pinned %d and %d", st.Nodes, st.Leaves, size.nodes, size.leaves)
	}
	everywhere := func(workers int) (time.Duration, error) {
		return timed(func() error {
			ok, _, st, err := explore.LinearizableEverywhere(root, size.depth, explore.Config{Workers: workers}, check.Options{})
			if err == nil && (!ok || st.Nodes != size.nodes) {
				err = fmt.Errorf("probe: cas-counter linearizable=%v over %d nodes, want true over %d", ok, st.Nodes, size.nodes)
			}
			return err
		})
	}
	one, err := everywhere(1)
	if err != nil {
		return err
	}
	all, err := everywhere(0)
	if err != nil {
		return err
	}
	set("explore.nodes", float64(st.Nodes))
	set("explore.leaves", float64(st.Leaves))
	set("explore.walk_ns_per_node", float64(walk)/float64(st.Nodes))
	set("explore.lin_us_per_leaf", float64(one-walk)/1e3/float64(st.Leaves))
	set("explore.nodes_per_s", float64(st.Nodes)/all.Seconds())
	set("explore.nodes_per_s_w1", float64(st.Nodes)/one.Seconds())
	set("explore.par_speedup", float64(one)/float64(all))

	sys := root.Clone()
	sys.EnableUndo()
	p := sys.Enabled()[0]
	n := e.n(sizes.probeLoopOps)
	d, err := timed(func() error {
		for i := 0; i < n; i++ {
			if err := sys.Advance(p, 0); err != nil {
				return err
			}
			if err := sys.Undo(); err != nil {
				return err
			}
		}
		return nil
	})
	set("sim.advance_undo_ns", float64(d)/float64(n))
	return err
}
