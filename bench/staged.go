package main

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/explore"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/scenario"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
	"github.com/elin-go/elin/internal/wal"
)

// staged re-drives one workload's pipeline stage by stage from this file,
// calling each module's public functions in the order the runtime does, and
// returns the lanes it recorded, its wall clock and the items it pushed
// through. The in-process pipelines run on one goroutine, a batch at a time,
// so every stage has a start and an end; the wire keeps its two connections.
func staged(workload string, e env, on bool) (lanes []*tracer, wall time.Duration, items int, err error) {
	n := 1
	if workload == "wire-closed" {
		n = clients
	}
	lanes = newTracers(on, workload, n)
	t0 := time.Now()
	switch workload {
	case "live-record", "live-monitored", "live-durable":
		items, err = stagedLive(lanes[0], e, workload)
	case "check-offline-reg":
		items, err = stagedReg(lanes[0], e)
	case "wire-closed":
		items, err = stagedWire(lanes, e)
	case "explore-lin":
		items, err = stagedExplore(lanes[0], e)
	default:
		err = fmt.Errorf("no staged pipeline for %q", workload)
	}
	return lanes, time.Since(t0), items, err
}

// stagedLive is generate → apply → record → merge → sink → fold → window
// check, with the sink on live-durable only and the monitor on
// live-monitored only. It mirrors what live.Run does first: the history is
// reserved and the shards are sized for the whole run.
func stagedLive(tr *tracer, e env, workload string) (int, error) {
	ops := e.n(map[string]int{
		"live-record": sizes.stagedRecordOps, "live-monitored": sizes.stagedMonitoredOps, "live-durable": sizes.stagedDurableOps,
	}[workload])
	sc := liveScenario(e, ops, "none")
	obj, err := freshObject(sc)
	if err != nil {
		return 0, err
	}
	gen := live.FetchIncGen()
	shards := make([]*live.Shard, clients)
	rngs := make([]*rand.Rand, clients)
	for c := range shards {
		shards[c] = live.NewShard(2 * ops)
		rngs[c] = rand.New(rand.NewSource(e.seed ^ int64(c+1)*0x5DEECE66D))
	}
	h := history.New()
	h.Reserve(2 * clients * ops)
	var mon check.Monitor
	if workload == "live-monitored" {
		if mon, err = check.NewMonitor(check.MonitorSpec{}, obj.Spec(), check.IncrementalConfig{Stride: 512}); err != nil {
			return 0, err
		}
		defer mon.Abort()
	}
	var log *wal.Log
	if workload == "live-durable" {
		log, err = wal.Create(filepath.Join(e.tmp, "staged.wal"),
			wal.Header{Object: sc.Impl, ObjName: obj.Name(), Procs: clients, Ops: ops, Seed: e.seed}, durableSyncPolicy)
		if err != nil {
			return 0, err
		}
		defer log.Close()
	}
	m := live.NewMerger(obj.Name(), 0, shards)
	var seq atomic.Uint64

	batch := make([]spec.Op, batchOps)
	stamps := make([]uint64, batchOps)
	tickets := make([]uint64, batchOps)
	resps := make([]int64, batchOps)
	var pos []uint64
	keepPos := func(_ history.Event, p uint64) error {
		pos = append(pos, p)
		return nil
	}
	// downstream is everything after the shards: one drain, then the sink and
	// the monitor over the events that drain appended.
	downstream := func(parent int) error {
		from := h.Len()
		pos = pos[:0]
		s := tr.begin(stageMerge, parent)
		if _, err := m.Drain(h, keepPos); err != nil {
			return err
		}
		tr.end(s, h.Len()-from)
		if log != nil {
			s := tr.begin(stageSink, parent)
			for i := from; i < h.Len(); i++ {
				if err := log.Append(h.Event(i), pos[i-from]); err != nil {
					return err
				}
			}
			tr.end(s, h.Len()-from)
		}
		if mon != nil {
			return feedStaged(tr, parent, mon, h.Event, from, h.Len())
		}
		return nil
	}

	run := tr.begin(spanRun, -1)
	for done := 0; done < ops; done += batchOps {
		n := min(batchOps, ops-done)
		b := tr.begin(spanBatch, run)
		for c := 0; c < clients; c++ {
			s := tr.begin(stageGenerate, b)
			for i := 0; i < n; i++ {
				batch[i] = gen(c, done+i, rngs[c])
			}
			tr.end(s, n)
			s = tr.begin(stageApply, b)
			for i := 0; i < n; i++ {
				stamps[i] = seq.Load()
				if resps[i], tickets[i], err = obj.Apply(c, batch[i], &seq); err != nil {
					return 0, err
				}
			}
			tr.end(s, n)
			s = tr.begin(stageRecord, b)
			for i := 0; i < n; i++ {
				if !shards[c].PushInvoke(stamps[i], batch[i]) || !shards[c].PushCommit(tickets[i], resps[i], batch[i]) {
					return 0, fmt.Errorf("staged %s: shard overflow", workload)
				}
			}
			tr.end(s, n)
		}
		if err := downstream(b); err != nil {
			return 0, err
		}
		tr.end(b, clients*n)
	}
	// The tail: what the merger held back behind the last batch's watermark,
	// the monitor's last window and the log's last sync.
	b := tr.begin(spanBatch, run)
	for _, sh := range shards {
		sh.Finish()
	}
	if err := downstream(b); err != nil {
		return 0, err
	}
	if mon != nil {
		s := tr.begin(stageWindow, b)
		v, err := mon.Finish()
		tr.end(s, 1)
		if err != nil {
			return 0, err
		}
		if v != nil || mon.Verdict().FinalMinT != 0 {
			return 0, fmt.Errorf("staged %s: monitor flagged a correct counter", workload)
		}
	}
	if log != nil {
		s := tr.begin(stageSink, b)
		err := log.Close()
		tr.end(s, 0)
		if err != nil {
			return 0, err
		}
	}
	tr.end(b, 0)
	tr.end(run, clients*ops)
	if h.Len() != 2*clients*ops {
		return 0, fmt.Errorf("staged %s: merged %d events, want %d", workload, h.Len(), 2*clients*ops)
	}
	return clients * ops, nil
}

// feedStaged feeds events [from, to) to mon under parent. The Monitor seam
// does not say which Feed closes a window, so with the tracer on every Feed
// is followed by one clock read and by Checks(): a Feed after which Checks()
// rose is window-check time, every other one is fold time.
func feedStaged(tr *tracer, parent int, mon check.Monitor, at func(int) history.Event, from, to int) error {
	feed := func(i int) error {
		v, err := mon.Feed(at(i))
		if err == nil && v != nil {
			err = fmt.Errorf("staged: %s on a correct history", v)
		}
		return err
	}
	if !tr.on {
		for i := from; i < to; i++ {
			if err := feed(i); err != nil {
				return err
			}
		}
		return nil
	}
	start := tr.now()
	last, checks := start, mon.Checks()
	var window int64
	windows := 0
	for i := from; i < to; i++ {
		if err := feed(i); err != nil {
			return err
		}
		now := tr.now()
		if c := mon.Checks(); c != checks {
			window += now - last
			windows += c - checks
			checks = c
		}
		last = now
	}
	fold := tr.add(stageFold, parent, start, last-start-window, to-from)
	tr.add(stageWindow, parent, tr.spans[fold].End, window, windows)
	return nil
}

// stagedReg is generate → fold → window check on the register history.
func stagedReg(tr *tracer, e env) (int, error) {
	run := tr.begin(spanRun, -1)
	s := tr.begin(stageGenerate, run)
	events := registerHistory(e.seed, e.n(sizes.stagedRegOps))
	tr.end(s, len(events))
	mon, err := check.NewMonitor(check.MonitorSpec{}, registerObject, registerMonitor)
	if err != nil {
		return 0, err
	}
	defer mon.Abort()
	at := func(i int) history.Event { return events[i] }
	for done := 0; done < len(events); done += batchOps {
		n := min(batchOps, len(events)-done)
		b := tr.begin(spanBatch, run)
		if err := feedStaged(tr, b, mon, at, done, done+n); err != nil {
			return 0, err
		}
		tr.end(b, n)
	}
	s = tr.begin(stageWindow, run)
	v, err := mon.Finish()
	tr.end(s, 1)
	if err != nil {
		return 0, err
	}
	if v != nil || mon.Verdict().FinalMinT != 0 {
		return 0, fmt.Errorf("staged check-offline-reg: monitor flagged an atomic register's history")
	}
	tr.end(run, len(events))
	return len(events), nil
}

// exploreRoot builds the root configuration the explore engine would.
func exploreRoot(size exploreSize) (*sim.System, map[string]spec.Object, error) {
	impl, err := registry.Impl("cas-counter")
	if err != nil {
		return nil, nil, err
	}
	workload, err := registry.WorkloadByName("", impl, size.procs, size.ops)
	if err != nil {
		return nil, nil, err
	}
	policy, err := registry.Policy("")
	if err != nil {
		return nil, nil, err
	}
	root, err := sim.NewSystem(impl, workload, base.SamePolicy(policy), check.Options{}, false)
	if err != nil {
		return nil, nil, err
	}
	return root, map[string]spec.Object{impl.Name(): impl.Spec()}, nil
}

// stagedExplore is walk → leaf check: explore.Leaves with the leaf's
// linearizability judged in the callback. A batch is batchOps leaves; its
// leaf-check span sums the callbacks' time and its walk span is the rest.
func stagedExplore(tr *tracer, e env) (int, error) {
	size := e.exploreSize(sizes.exploreSmall)
	root, specs, err := exploreRoot(size)
	if err != nil {
		return 0, err
	}
	run := tr.begin(spanRun, -1)
	var batchStart, checking int64
	leaves := 0
	if tr.on {
		batchStart = tr.now()
	}
	flush := func() {
		if !tr.on || leaves == 0 {
			return
		}
		now := tr.now()
		b := tr.add(spanBatch, run, batchStart, now-batchStart, leaves)
		tr.chain(b, batchStart, []string{stageWalk, stageLeafCheck}, []int64{now - batchStart - checking, checking}, leaves)
		batchStart, checking, leaves = now, 0, 0
	}
	st, err := explore.Leaves(root, size.depth, explore.Config{}, func(leaf *sim.System) error {
		var t0 int64
		if tr.on {
			t0 = tr.now()
		}
		ok, err := check.Linearizable(specs, leaf.History(), check.Options{})
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("staged explore-lin: a cas-counter leaf is not linearizable")
		}
		if tr.on {
			checking += tr.now() - t0
		}
		if leaves++; leaves == batchOps {
			flush()
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	flush()
	tr.end(run, st.Nodes)
	if st.Nodes != size.nodes || st.Leaves != size.leaves {
		return 0, fmt.Errorf("staged explore-lin: %d nodes and %d leaves, pinned %d and %d", st.Nodes, st.Leaves, size.nodes, size.leaves)
	}
	return st.Nodes, nil
}

// stagedWire is encode → write → wait → read → decode on each of the two
// connections, against a real server.Server with the workload's monitor.
func stagedWire(lanes []*tracer, e env) (int, error) {
	ops := e.n(sizes.stagedWireOps)
	sc := liveScenario(e, ops, "full")
	srv, err := scenario.BuildServer(sc)
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv.Serve(ln)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d, err := newWireDriver(lanes[c], ln.Addr().String(), c, e.seed, false)
			if err != nil {
				errs[c] = err
				return
			}
			defer d.close()
			errs[c] = d.drive(ops)
		}(c)
	}
	wg.Wait()
	sum, err := srv.Shutdown()
	if err != nil {
		return 0, err
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if !serverMerged(sum.Events, clients*ops) || sum.Violation != nil || sum.Verdict.FinalMinT != 0 || sum.Overloaded {
		return 0, fmt.Errorf("staged wire-closed: %d events (want %d), violation %v, final MinT %d, overloaded %v",
			sum.Events, 2*clients*ops, sum.Violation, sum.Verdict.FinalMinT, sum.Overloaded)
	}
	return clients * ops, nil
}
