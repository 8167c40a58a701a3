package live

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// A shard accepts pushes across many chunks while a concurrent merger
// drains it, and the merge output matches the push order.
func TestShardGrowsUnderConcurrentDrain(t *testing.T) {
	op := spec.MakeOp(spec.MethodFetchInc)
	const ops = 5000
	sh := NewShard(0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer sh.Finish()
		for i := uint64(0); i < ops; i++ {
			if !sh.PushInvoke(i, op) {
				t.Error("unbounded shard refused a push")
				return
			}
			if !sh.PushCommit(i+1, int64(i), op) {
				t.Error("unbounded shard refused a push")
				return
			}
		}
	}()
	h := history.New()
	m := NewMerger("C", 0, []*Shard{sh})
	for h.Len() < 2*ops {
		if _, err := m.Drain(h, nil); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	wg.Wait()
	for i := 0; i < ops; i++ {
		if e := h.Event(2*i + 1); e.Resp != int64(i) {
			t.Fatalf("event %d: resp %d, want %d", 2*i+1, e.Resp, i)
		}
	}
}

// A shard with a capacity reports overflow at that count (the in-process
// runtime's accounting guard).
func TestShardFixedOverflow(t *testing.T) {
	op := spec.MakeOp(spec.MethodFetchInc)
	sh := NewShard(2)
	if !sh.PushInvoke(0, op) || !sh.PushCommit(1, 0, op) {
		t.Fatal("pushes within capacity must succeed")
	}
	if sh.PushInvoke(1, op) {
		t.Fatal("push past capacity must fail")
	}
}

// An idle shard's published bound releases records the watermark would
// otherwise hold back, without the shard pushing anything.
func TestMergerIdleBound(t *testing.T) {
	op := spec.MakeOp(spec.MethodFetchInc)
	busy := NewShard(0)
	idle := NewShard(0)
	busy.PushInvoke(0, op)
	busy.PushCommit(1, 0, op)
	h := history.New()
	m := NewMerger("C", 0, []*Shard{busy, idle})

	// The idle shard has published nothing: its (0,-1) watermark blocks
	// everything.
	if n, err := m.Drain(h, nil); err != nil || n != 0 {
		t.Fatalf("drain before bound: n=%d err=%v, want 0 merged", n, err)
	}
	// Bound (1,0) releases busy's invoke at (0,1) and commit at (1,0) —
	// equal keys are safe (the idle client's future records are strictly
	// above its bound).
	idle.SetBound(1)
	if n, err := m.Drain(h, nil); err != nil || n != 2 {
		t.Fatalf("drain after bound: n=%d err=%v, want 2 merged", n, err)
	}
	// A later record from the previously idle shard still merges in order.
	idle.PushInvoke(1, op)
	idle.PushCommit(2, 1, op)
	idle.Finish()
	busy.Finish()
	if n, err := m.Drain(h, nil); err != nil || n != 2 {
		t.Fatalf("final drain: n=%d err=%v, want 2 merged", n, err)
	}
	if h.Len() != 4 {
		t.Fatalf("history length %d, want 4", h.Len())
	}

	// The same with the idle shard below the busy one: its bound (1,0)
	// equals busy's commit key, and a bound is a strict promise, so the
	// commit is released too — client ids take no part in the watermark.
	idle, busy = NewShard(0), NewShard(0)
	busy.PushInvoke(0, op)
	busy.PushCommit(1, 0, op)
	idle.SetBound(1)
	m = NewMerger("C", 0, []*Shard{idle, busy})
	if n, err := m.Drain(history.New(), nil); err != nil || n != 2 {
		t.Fatalf("drain with the idle shard first: n=%d err=%v, want 2 merged", n, err)
	}
}

// A bound covers only the records the drain's snapshot saw. Here an idle
// shard, mid-drain, publishes an operation and then a bound above it; a
// drain that took the fresh bound with its stale length would release the
// busy shard's commit past that operation's invocation.
func TestMergerBoundAfterSnapshotHoldsBack(t *testing.T) {
	op := spec.MakeOp(spec.MethodFetchInc)
	busy, idle := NewShard(0), NewShard(0)
	busy.PushInvoke(0, op)
	busy.PushCommit(2, 0, op)
	busy.Finish()
	idle.SetBound(1) // releases busy's (0,1) invocation only
	h := history.New()
	m := NewMerger("C", 0, []*Shard{busy, idle})
	late := func(history.Event, uint64) error {
		if idle.bound.Load() == 2 {
			idle.PushInvoke(1, op) // (1,1): above the bound, below busy's (2,0)
			idle.PushCommit(3, 1, op)
			idle.SetBound(3)
		}
		return nil
	}
	for i := 0; i < 3 && h.Len() < 4; i++ {
		if _, err := m.Drain(h, late); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"inv p0 C fetchinc", "inv p1 C fetchinc", "res p0 C 0", "res p1 C 1"}
	for i, w := range want {
		if i >= h.Len() || h.Event(i).String() != w {
			t.Fatalf("merged\n%swant %q", h, want)
		}
	}
}

// Run ends on the done flags its own drain snapshotted, never on flags read
// after it. Here the drain's step finishes the last open shard while that
// shard's bound holds a commit back: the drain that saw the shard open
// merges one event, and only a further drain, whose snapshot sees every
// shard done, may merge the held commit and end the loop.
func TestMergerRunDrainsAfterFinishMidDrain(t *testing.T) {
	op := spec.MakeOp(spec.MethodFetchInc)
	busy, open := NewShard(0), NewShard(0)
	busy.PushInvoke(0, op)
	busy.PushCommit(2, 0, op)
	busy.Finish()
	open.SetBound(1) // releases busy's (0,1) invocation, holds back its (2,0) commit
	step := func([]uint64) error { open.Finish(); return nil }
	h := history.New()
	if err := NewMerger("C", 0, []*Shard{busy, open}).Run(h, false, step, nil); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 {
		t.Fatalf("Run returned with %d of 2 events merged", h.Len())
	}
}

// Run keeps merge positions in one slice of posLimit: a drain stops there,
// and the step sees every event's position once, in merge order, whatever
// the backlog.
func TestMergerRunKeepsPositionsInBoundedDrains(t *testing.T) {
	const ops = 3*posLimit/2 + 5
	op := spec.MakeOp(spec.MethodFetchInc)
	sh := NewShard(0)
	var want []uint64
	for i := uint64(0); i < ops; i++ {
		sh.PushInvoke(i, op)
		sh.PushCommit(i+1, int64(i), op)
		want = append(want, i, i+1)
	}
	sh.Finish()
	h := history.New()
	var got []uint64
	step := func(pos []uint64) error {
		if len(pos) > posLimit || cap(pos) != posLimit {
			t.Fatalf("step handed %d positions in a slice of %d", len(pos), cap(pos))
		}
		got = append(got, pos...)
		return nil
	}
	if err := NewMerger("C", 0, []*Shard{sh}).Run(h, true, step, nil); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2*ops || !slices.Equal(got, want) {
		t.Fatalf("merged %d of %d events, %d positions", h.Len(), 2*ops, len(got))
	}
}

// Every way out of a concurrent Run leaves no goroutine behind: the clients
// have exited and the merge loop has returned by the time Run does (the
// count may take a moment to settle as exiting goroutines unwind).
func TestMergerRunLeavesNoGoroutine(t *testing.T) {
	fi := func() Object { return NewAtomicFetchInc("C", 0) }
	cases := []struct {
		name   string
		cfg    Config
		failAt int
		exited func(*Result, error) bool
	}{
		{name: "clean", cfg: Config{Object: fi()},
			exited: func(r *Result, err error) bool { return err == nil && r.Violation == nil }},
		{name: "violation", cfg: Config{Object: NewJunkFetchInc("C", 20), Monitor: check.IncrementalConfig{Stride: 16}},
			exited: func(r *Result, err error) bool { return err == nil && r.Violation != nil }},
		{name: "crash", cfg: Config{Object: fi(), Faults: mustFaults(t, "crash:50")},
			exited: func(r *Result, err error) bool { return err == nil && r.Crashed }},
		{name: "sink error", cfg: Config{Object: fi()}, failAt: 7,
			exited: func(_ *Result, err error) bool { return errors.Is(err, errSinkBoom) }},
		{name: "client error", cfg: Config{Object: &failingObject{}},
			exited: func(_ *Result, err error) bool { return err != nil }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			c.cfg.Sink = &recSink{failAt: c.failAt}
			c.cfg.Clients, c.cfg.Ops, c.cfg.Seed = 2, 200, 1
			if res, err := Run(c.cfg); !c.exited(res, err) {
				t.Fatalf("Run = %+v, %v: not the %s exit", res, err, c.name)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Run returned, baseline %d", runtime.NumGoroutine(), baseline)
				}
			}
		})
	}
}

// A writer that never blocks does not starve the merge on a single P: it
// yields once a chunk, so Run drains while the writer is still pushing,
// not only after it has finished. Without the yield the merger, asleep in
// idleWait, gets the P back only at preemption, which a writer of 64
// chunks rarely lasts until.
func TestMergerRunDrainsWhileWriterRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const total = 64 * chunkLen
	op := spec.MakeOp(spec.MethodFetchInc)
	sh := NewShard(0)
	go func() {
		defer sh.Finish()
		for i := 0; i < total; i++ {
			ok := false
			if i%2 == 0 {
				ok = sh.PushInvoke(uint64(i/2), op)
			} else {
				ok = sh.PushCommit(uint64(i/2)+1, int64(i/2), op)
			}
			if !ok {
				t.Errorf("push %d refused", i)
				return
			}
		}
	}()
	h := history.New()
	beside := 0
	after := func() {
		if n := h.Len(); n > 0 && n < total {
			beside++
		}
	}
	if err := NewMerger("C", 0, []*Shard{sh}).Run(h, false, nil, after); err != nil {
		t.Fatal(err)
	}
	if h.Len() != total {
		t.Fatalf("Run merged %d of %d records", h.Len(), total)
	}
	if beside < total/chunkLen/8 {
		t.Fatalf("%d drains ran while the writer was pushing, want at least one per 8 chunks (%d)",
			beside, total/chunkLen/8)
	}
}

// chunkBytes is the size of one chunk (the allocator rounds it up to 64 KiB).
const chunkBytes = int64(unsafe.Sizeof(chunk{}))

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeap is the heap in use after a collection (signed: differences of
// it go both ways).
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// pushChunk pushes chunkLen records, continuing the invoke/commit
// alternation at record number from.
func pushChunk(t *testing.T, sh *Shard, from int) {
	t.Helper()
	op := spec.MakeOp(spec.MethodFetchInc)
	for i := from; i < from+chunkLen; i++ {
		ok := false
		if i%2 == 0 {
			ok = sh.PushInvoke(uint64(i/2), op)
		} else {
			ok = sh.PushCommit(uint64(i/2)+1, int64(i/2), op)
		}
		if !ok {
			t.Fatalf("push %d refused", i)
		}
	}
}

// The sizes the recorder's layout rests on: a record is one cache line (two
// a line let the merger's read and the writer's next store collide) and a
// chunk with its link fits 64 KiB.
func TestRecorderLayout(t *testing.T) {
	if got := unsafe.Sizeof(rec{}); got != 64 {
		t.Errorf("a record is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(chunk{}); got > 64<<10 || got <= 64<<10-64 {
		t.Errorf("a chunk is %d bytes, want the last record's worth below 64 KiB", got)
	}
}

// A shard that has recorded nothing owns no chunk, whatever its capacity:
// a server sized for thousands of client ids pays for the ones that speak.
func TestShardIdleCostsNoChunk(t *testing.T) {
	const pairs = 512
	shards := make([]*Shard, 0, 2*pairs)
	before := totalAlloc()
	for i := 0; i < pairs; i++ {
		shards = append(shards, NewShard(0), NewShard(1<<30))
	}
	m := NewMerger("C", 0, shards)
	for _, sh := range shards {
		sh.Finish()
	}
	if n, err := m.Drain(history.New(), nil); n != 0 || err != nil {
		t.Fatalf("drain of idle shards: n=%d err=%v", n, err)
	}
	if got := totalAlloc() - before; got > 2*pairs*256 {
		t.Fatalf("%d idle shards and their merger allocated %d bytes, want at most 256 a shard", 2*pairs, got)
	}
}

// A merger that keeps up hands every chunk back: the writer cycles through
// the same two for ever.
func TestShardRecyclesBehindCursor(t *testing.T) {
	const chunks = 200
	sh := NewShard(0)
	m := NewMerger("C", 0, []*Shard{sh})
	h := history.New()
	h.Reserve(chunks * chunkLen)
	before := totalAlloc()
	for c := 0; c < chunks; c++ {
		pushChunk(t, sh, c*chunkLen)
		if n, err := m.Drain(h, nil); n != chunkLen || err != nil {
			t.Fatalf("chunk %d: drain moved %d events (err %v), want %d", c, n, err, chunkLen)
		}
	}
	if got := int64(totalAlloc() - before); got > 4*chunkBytes {
		t.Fatalf("%d chunks of records through a merger that keeps up allocated %d bytes, want at most 4 chunks (%d)",
			chunks, got, 4*chunkBytes)
	}
}

// A shard that lagged does not keep its peak: once the merger has caught
// up, the chunk being filled and the one spare are all that is reachable.
func TestShardRetentionBounded(t *testing.T) {
	const chunks = 100
	sh := NewShard(0)
	m := NewMerger("C", 0, []*Shard{sh})
	h := history.New()
	h.Reserve(chunks * chunkLen)
	before := liveHeap()
	for c := 0; c < chunks; c++ {
		pushChunk(t, sh, c*chunkLen)
	}
	if peak := liveHeap() - before; peak < (chunks-1)*chunkBytes {
		t.Fatalf("%d undrained chunks hold %d bytes: the test is not measuring the chunks", chunks, peak)
	}
	if n, err := m.Drain(h, nil); n != chunks*chunkLen || err != nil {
		t.Fatalf("drain moved %d events (err %v), want %d", n, err, chunks*chunkLen)
	}
	// A quarter of a chunk on top for whatever else the runtime allocated.
	if got := liveHeap() - before; got > 2*chunkBytes+chunkBytes/4 {
		t.Fatalf("after the drain the shard keeps %d bytes, want at most 2 chunks (%d)", got, 2*chunkBytes)
	}
	runtime.KeepAlive(sh)
	runtime.KeepAlive(m)
	runtime.KeepAlive(h)
}

// One writer a shard against a merger that alternates between letting every
// writer get three chunks ahead (chunks pile up and are allocated fresh) and
// draining in a tight loop (it catches up and chunks are recycled), over 23
// chunk boundaries a writer, with a third shard that is idle for the first
// half of the run, records a chunk and a half and idles again, publishing
// bounds whenever it is idle. Every record is merged exactly once, in push
// order and in key order; the idle shard's bounds are what lets the first
// half merge at all. Run it under -race.
func TestShardWritersAgainstSlowAndCaughtUpMerger(t *testing.T) {
	const (
		writers = 2
		ops     = 12 * chunkLen
		idleOps = 3 * chunkLen / 4
	)
	shards := make([]*Shard, writers+1)
	for i := range shards {
		shards[i] = NewShard(0)
	}
	var seq atomic.Uint64
	var merged atomic.Int64
	var giveUp atomic.Bool
	deadline := time.AfterFunc(2*time.Minute, func() { giveUp.Store(true) })
	defer deadline.Stop()

	record := func(sh *Shard, n int) {
		for i := 0; i < n; i++ {
			op := spec.MakeOp1(spec.MethodFetchInc, int64(i))
			if !sh.PushInvoke(seq.Load(), op) || !sh.PushCommit(seq.Add(1), int64(i), op) {
				t.Error("unbounded shard refused a push")
				return
			}
		}
	}
	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	for c := 0; c < writers; c++ {
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			defer sh.Finish()
			record(sh, ops)
		}(shards[c])
	}
	go func() {
		wg.Wait()
		close(writersDone)
	}()
	idleDone := make(chan struct{})
	go func() {
		defer close(idleDone)
		idle := shards[writers]
		defer idle.Finish()
		// Nothing in flight: the bound is the only thing that releases the
		// writers' records.
		for merged.Load() < writers*ops && !giveUp.Load() {
			idle.SetBound(seq.Load())
			runtime.Gosched()
		}
		record(idle, idleOps)
		for {
			select {
			case <-writersDone:
				return
			default:
				idle.SetBound(seq.Load())
				runtime.Gosched()
			}
		}
	}()

	h := history.New()
	m := NewMerger("C", 0, shards)
	var lastPos uint64
	lastKind := -1
	inOrder := func(e history.Event, pos uint64) error {
		kind := 0
		if e.Kind == history.KindInvoke {
			kind = 1
		}
		if pos < lastPos || pos == lastPos && kind < lastKind {
			t.Errorf("event %d merged at key (%d,%d) after (%d,%d)", h.Len()-1, pos, kind, lastPos, lastKind)
		}
		lastPos, lastKind = pos, kind
		return nil
	}
	allDone := func() bool {
		for _, sh := range shards {
			if !sh.done.Load() {
				return false
			}
		}
		return true
	}
merge:
	for !giveUp.Load() {
		for c := 0; c < writers; c++ {
			for !shards[c].done.Load() && int(shards[c].n.Load())-m.cur[c].read < 3*chunkLen {
				runtime.Gosched()
			}
		}
		for moved := 0; moved < 6*chunkLen*writers && !giveUp.Load(); {
			// Loaded before the drain: only a drain that began with every
			// shard finished and moved nothing means there is nothing left.
			fin := allDone()
			n, err := m.Drain(h, inOrder)
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			merged.Add(int64(n))
			moved += n
			if fin && n == 0 {
				break merge
			}
		}
	}
	if giveUp.Load() {
		t.Fatalf("merged %d of %d events in two minutes", h.Len(), 2*(writers*ops+idleOps))
	}
	<-idleDone

	if want := 2 * (writers*ops + idleOps); h.Len() != want {
		t.Fatalf("merged %d events, want %d", h.Len(), want)
	}
	next := make([]int64, len(shards)) // per shard: 2*op for its invoke, 2*op+1 for its response
	for i := 0; i < h.Len(); i++ {
		e := h.Event(i)
		got := 2*e.Resp + 1
		if e.Kind == history.KindInvoke {
			got = 2 * e.Op.Args[0]
		}
		if got != next[e.Proc] {
			t.Fatalf("event %d (%v): shard %d record %d merged where record %d belongs", i, e, e.Proc, got, next[e.Proc])
		}
		next[e.Proc]++
	}
}
