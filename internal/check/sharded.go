package check

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// ringCap is the per-worker dispatch ring capacity (tasks). Small on
// purpose: each task pins a full window of events, so the ring bounds how
// far checking may lag recording before backpressure kicks in.
const ringCap = 8

// windowTask is one closed window handed to a worker. The dispatcher folds
// the window's completed operations into the rebased state BEFORE pushing,
// after which the task's window and object belong exclusively to the worker
// until done is published — no clone, no lock.
type windowTask struct {
	// start and end are the global event indexes the window covers
	// ([start, end)); end is also the event count the sample is keyed by.
	start, end int
	win        *history.History
	tb         history.OpTable // win's operation table, filled by the dispatcher
	obj        spec.Object

	minT int
	ok   bool
	err  error
	done atomic.Bool
}

// taskRing is a bounded single-producer single-consumer ring: the
// dispatching goroutine pushes, exactly one worker pops. Lock-free — the
// producer publishes a slot by advancing tail, the consumer releases it by
// advancing head, and a full ring spins the producer (backpressure) instead
// of dropping or growing.
type taskRing struct {
	buf  []*windowTask
	mask uint64
	head atomic.Uint64 // consumer cursor
	tail atomic.Uint64 // producer cursor
	// wake parks the idle consumer: every push deposits a token (capacity 1,
	// non-blocking), the worker blocks on it after finding the ring empty.
	// Spurious tokens cost one extra pop attempt; a busy-spinning idle worker
	// would cost the whole core the clients are trying to run on.
	wake chan struct{}
}

func newTaskRing() *taskRing {
	return &taskRing{
		buf:  make([]*windowTask, ringCap),
		mask: ringCap - 1,
		wake: make(chan struct{}, 1),
	}
}

// push enqueues t, spinning while the ring is full. Returns false only when
// stopped is raised mid-spin (violation or abort tearing the pool down).
func (r *taskRing) push(t *windowTask, stopped *atomic.Bool) bool {
	for {
		tail := r.tail.Load()
		if tail-r.head.Load() < uint64(len(r.buf)) {
			r.buf[tail&r.mask] = t
			r.tail.Store(tail + 1)
			select {
			case r.wake <- struct{}{}:
			default:
			}
			return true
		}
		if stopped.Load() {
			return false
		}
		runtime.Gosched()
	}
}

// pop dequeues the next task, or nil when the ring is empty.
func (r *taskRing) pop() *windowTask {
	head := r.head.Load()
	if head == r.tail.Load() {
		return nil
	}
	t := r.buf[head&r.mask]
	r.buf[head&r.mask] = nil
	r.head.Store(head + 1)
	return t
}

// ShardedByWindow is the pipelined window monitor: the same windowed
// t-linearizability check as Incremental, with the MinT searches fanned out
// to a fixed worker pool so checking overlaps recording instead of
// serializing behind it. The Feed goroutine only appends events, folds the
// rebase at each cut, and round-robins closed windows onto per-worker
// dispatch rings; workers run the MinT searches concurrently; a collector
// (run opportunistically from Feed, exhaustively from Finish) consumes
// results strictly in window order.
//
// Because the rebase fold stays on the Feed goroutine (windows are
// sharded, the state handoff between them is not), and results are
// collected in dispatch order, the sample series, verdict, violation
// window and check count are identical to the sequential monitor's on the
// same event sequence. Two things may differ: Events() can run past a
// violating window before the violation is collected (the detection lag of
// pipelining — Feed reports the violation a few events later than the
// sequential monitor would), and under sampling an escalation takes effect
// only when the triggering window's result is collected, so the skip
// pattern near an escalation can lag the sequential monitor's by the
// pipeline depth.
type ShardedByWindow struct {
	cfg IncrementalConfig

	obj spec.Object
	det spec.DetStepper

	win    *history.History
	tb     history.OpTable // table of a skipped window; a checked one's goes with its task
	start  int
	events int

	workers int
	rings   []*taskRing
	next    int // round-robin dispatch cursor
	// pending holds dispatched, uncollected tasks in window order; the
	// in-order collector is what pins the sharded verdict to the
	// sequential one.
	pending []*windowTask

	stopped  atomic.Bool
	done     chan struct{} // closed by shutdown to unpark idle workers
	wg       sync.WaitGroup
	finished bool

	samples   []Sample
	violation *WindowViolation
	checks    int

	sampleEvery    int
	skipLeft       int
	winCount       int
	skipped        int
	escalations    int
	maxSampleEvery int
}

// NewShardedByWindow returns a pipelined window monitor running its MinT
// searches on `workers` goroutines.
func NewShardedByWindow(obj spec.Object, cfg IncrementalConfig, workers int) (*ShardedByWindow, error) {
	if workers < 1 {
		return nil, fmt.Errorf("check: sharded monitor needs >= 1 worker, got %d", workers)
	}
	s := &ShardedByWindow{
		cfg:     cfg,
		obj:     obj,
		win:     history.New(),
		workers: workers,
		rings:   make([]*taskRing, workers),
		done:    make(chan struct{}),
	}
	s.det, _ = obj.Type.(spec.DetStepper)
	for i := range s.rings {
		s.rings[i] = newTaskRing()
		s.wg.Add(1)
		go s.worker(s.rings[i])
	}
	return s, nil
}

// worker drains one ring, publishing each task's MinT result through its
// done flag. An empty ring parks the worker on its wake channel rather than
// spinning — idle workers must not steal cycles from the goroutines
// generating the events.
func (s *ShardedByWindow) worker(r *taskRing) {
	defer s.wg.Done()
	var sc scratch
	for {
		if s.stopped.Load() {
			return
		}
		t := r.pop()
		if t == nil {
			select {
			case <-r.wake:
			case <-s.done:
				return
			}
			continue
		}
		t.minT, t.ok, t.err = windowMinT(t.obj, t.win, &t.tb, s.cfg.Opts, &sc)
		t.done.Store(true)
	}
}

// Feed implements Monitor. A violation raised by an earlier window is
// returned as soon as its result has been collected; that may be a few
// events after the sequential monitor would have reported it.
func (s *ShardedByWindow) Feed(e history.Event) (*WindowViolation, error) {
	if s.violation != nil {
		return s.violation, nil
	}
	if s.finished {
		return nil, fmt.Errorf("check: sharded feed after finish")
	}
	if err := s.win.Append(e); err != nil {
		return nil, fmt.Errorf("check: sharded feed: %w", err)
	}
	s.events++
	if s.win.Len() >= s.cfg.stride() {
		if v, err := s.closeWindow(false); v != nil || err != nil {
			if err != nil {
				s.shutdown()
			}
			return v, err
		}
	}
	v, err := s.drain(false)
	if err != nil {
		s.shutdown()
	}
	return v, err
}

// closeWindow dispatches the current window (or skips it under sampling)
// and advances the cut.
func (s *ShardedByWindow) closeWindow(force bool) (*WindowViolation, error) {
	s.winCount++
	if !force && s.skipLeft > 0 {
		s.skipLeft--
		s.skipped++
		s.tb.Fill(s.win)
		s.win.Reset()
		return nil, s.advance(&s.tb, s.win)
	}
	if s.sampleEvery > 1 {
		s.skipLeft = s.sampleEvery - 1
	}
	t := &windowTask{start: s.start, end: s.events, win: s.win, obj: s.obj}
	t.tb.Fill(s.win)
	// Fold before dispatch: the table is written one last time on this
	// goroutine; after the push below only the worker touches the task.
	if err := s.advance(&t.tb, history.New()); err != nil {
		return nil, err
	}
	s.pending = append(s.pending, t)
	if !s.rings[s.next].push(t, &s.stopped) {
		return s.violation, nil
	}
	s.next = (s.next + 1) % s.workers
	return nil, nil
}

// advance rebases the state past the window tb describes and makes next,
// primed with the still-open operations, the current window.
func (s *ShardedByWindow) advance(tb *history.OpTable, next *history.History) error {
	obj, err := rebaseFold(s.obj, s.det, tb, next)
	if err != nil {
		return err
	}
	s.obj = obj
	s.start = s.events
	s.win = next
	return nil
}

// drain collects finished results in window order. With wait=false it stops
// at the first unfinished task (the Feed fast path); with wait=true it
// spins until every pending task has been collected.
func (s *ShardedByWindow) drain(wait bool) (*WindowViolation, error) {
	for len(s.pending) > 0 {
		t := s.pending[0]
		if !t.done.Load() {
			if !wait {
				return nil, nil
			}
			runtime.Gosched()
			continue
		}
		s.pending = s.pending[1:]
		if v, err := s.collect(t); v != nil || err != nil {
			return v, err
		}
	}
	return nil, nil
}

// collect applies one window result exactly as the sequential closeWindow
// would: count the check, append the sample, raise the violation, or note a
// near-violation escalation.
func (s *ShardedByWindow) collect(t *windowTask) (*WindowViolation, error) {
	if t.err != nil {
		return nil, fmt.Errorf("check: sharded window [%d,%d): %w", t.start, t.end, t.err)
	}
	s.checks++
	mt := t.minT
	if !t.ok {
		mt = -1
	}
	s.samples = append(s.samples, Sample{Events: t.end, MinT: mt})
	if !s.cfg.NoViolation && s.cfg.MaxT >= 0 && (mt < 0 || mt > s.cfg.MaxT) {
		s.violation = &WindowViolation{
			Start:  t.start,
			End:    t.end,
			Window: t.win,
			Object: t.obj,
			MinT:   mt,
			MaxT:   s.cfg.MaxT,
		}
		// Freeze: discard the windows dispatched after the violating one
		// (the sequential monitor never checks them) and stop the pool.
		s.shutdown()
		return s.violation, nil
	}
	if s.sampleEvery > 1 && !s.cfg.NoViolation && s.cfg.MaxT > 0 && 2*mt > s.cfg.MaxT {
		s.sampleEvery = 1
		s.skipLeft = 0
		s.escalations++
	}
	return nil, nil
}

// Finish implements Monitor: dispatch the tail window, collect every
// pending result in order, and stop the pool.
func (s *ShardedByWindow) Finish() (*WindowViolation, error) {
	if s.violation != nil || s.finished {
		s.shutdown()
		return s.violation, nil
	}
	if s.win.Len() > 0 {
		if v, err := s.closeWindow(true); v != nil || err != nil {
			s.shutdown()
			return v, err
		}
	}
	v, err := s.drain(true)
	s.shutdown()
	return v, err
}

// Abort implements Monitor: stop the pool and discard pending results
// without measuring the tail. Idempotent; a no-op after Finish.
func (s *ShardedByWindow) Abort() { s.shutdown() }

// shutdown stops the workers, waits them out, and drops uncollected tasks.
func (s *ShardedByWindow) shutdown() {
	if s.finished {
		return
	}
	s.finished = true
	s.stopped.Store(true)
	close(s.done)
	s.wg.Wait()
	s.pending = nil
}

// Events implements Monitor.
func (s *ShardedByWindow) Events() int { return s.events }

// Checks implements Monitor (collected windows only, so it matches the
// sequential monitor even when discarded in-flight work was measured).
func (s *ShardedByWindow) Checks() int { return s.checks }

// Samples implements Monitor. The slice is live; callers must not mutate
// it.
func (s *ShardedByWindow) Samples() []Sample { return s.samples }

// Violation implements Monitor.
func (s *ShardedByWindow) Violation() *WindowViolation { return s.violation }

// Verdict implements Monitor.
func (s *ShardedByWindow) Verdict() Verdict {
	v := Verdict{Samples: s.samples}
	if len(s.samples) > 0 {
		v.FinalMinT = s.samples[len(s.samples)-1].MinT
	}
	v.Trend, v.Slope = Classify(s.samples)
	return v
}

// SetSampleEvery implements Monitor (same countdown semantics as the
// sequential monitor; the skip decision is taken at dispatch time).
func (s *ShardedByWindow) SetSampleEvery(n int) {
	if n < 1 {
		n = 1
	}
	s.sampleEvery = n
	s.skipLeft = n - 1
	if n > s.maxSampleEvery {
		s.maxSampleEvery = n
	}
}

// SampleEvery implements Monitor.
func (s *ShardedByWindow) SampleEvery() int {
	if s.sampleEvery < 1 {
		return 1
	}
	return s.sampleEvery
}

// SkippedWindows implements Monitor.
func (s *ShardedByWindow) SkippedWindows() int { return s.skipped }

// Escalations implements Monitor.
func (s *ShardedByWindow) Escalations() int { return s.escalations }

// MaxSampleEvery implements Monitor.
func (s *ShardedByWindow) MaxSampleEvery() int { return s.maxSampleEvery }

// ShardedByKey partitions a multi-key history into one sequential
// sub-monitor per object key. Each key's subhistory is windowed and checked
// independently; the composed verdict merges the per-key samples in global
// feed order and takes the max of the per-key final MinT values.
//
// This is the empirical compositionality probe: linearizability composes
// (a history is linearizable iff each per-object subhistory is), so for
// tolerance 0 the per-key verdicts are exactly the global one. Whether
// t-linearizability composes the same way for t > 0 is an open question —
// running shard:key next to a global monitor on the same multi-object run
// is how this harness asks it.
type ShardedByKey struct {
	cfg IncrementalConfig
	obj spec.Object

	subs map[string]*Incremental
	keys []string // creation order, for deterministic iteration

	events    int
	samples   []Sample
	violation *WindowViolation
	finished  bool

	sampleEvery int
}

// NewShardedByKey returns a per-key composed monitor. Every key is checked
// against the same object specification (multi-key workloads in this
// harness are homogeneous).
func NewShardedByKey(obj spec.Object, cfg IncrementalConfig) *ShardedByKey {
	return &ShardedByKey{
		cfg:         cfg,
		obj:         obj,
		subs:        make(map[string]*Incremental),
		sampleEvery: 1,
	}
}

// Feed implements Monitor: route the event to its key's sub-monitor and
// restamp any sample it produced with the global event count.
func (s *ShardedByKey) Feed(e history.Event) (*WindowViolation, error) {
	if s.violation != nil {
		return s.violation, nil
	}
	sub, ok := s.subs[e.Obj]
	if !ok {
		sub = NewIncremental(s.obj, s.cfg)
		if s.sampleEvery > 1 {
			sub.SetSampleEvery(s.sampleEvery)
		}
		s.subs[e.Obj] = sub
		s.keys = append(s.keys, e.Obj)
	}
	before := len(sub.Samples())
	v, err := sub.Feed(e)
	s.events++
	if err != nil {
		return nil, err
	}
	s.mergeSamples(sub, before)
	if v != nil {
		s.violation = v
		return v, nil
	}
	return nil, nil
}

// mergeSamples restamps sub's new samples (from index `from`) with the
// global event count and appends them to the composed series.
func (s *ShardedByKey) mergeSamples(sub *Incremental, from int) {
	for _, smp := range sub.Samples()[from:] {
		s.samples = append(s.samples, Sample{Events: s.events, MinT: smp.MinT})
	}
}

// Finish implements Monitor: finish every sub-monitor in key order; the
// first tail violation wins.
func (s *ShardedByKey) Finish() (*WindowViolation, error) {
	if s.violation != nil || s.finished {
		return s.violation, nil
	}
	s.finished = true
	for _, k := range s.keys {
		sub := s.subs[k]
		before := len(sub.Samples())
		v, err := sub.Finish()
		if err != nil {
			return nil, err
		}
		s.mergeSamples(sub, before)
		if v != nil && s.violation == nil {
			s.violation = v
		}
	}
	return s.violation, nil
}

// Abort implements Monitor (sub-monitors hold no resources).
func (s *ShardedByKey) Abort() { s.finished = true }

// Events implements Monitor.
func (s *ShardedByKey) Events() int { return s.events }

// Checks implements Monitor (sum over keys).
func (s *ShardedByKey) Checks() int {
	n := 0
	for _, k := range s.keys {
		n += s.subs[k].Checks()
	}
	return n
}

// Samples implements Monitor: the per-key samples merged in global feed
// order, each stamped with the global event count at which it was taken.
func (s *ShardedByKey) Samples() []Sample { return s.samples }

// Violation implements Monitor.
func (s *ShardedByKey) Violation() *WindowViolation { return s.violation }

// Verdict implements Monitor: the trend of the merged series, with
// FinalMinT the max of the per-key final MinT values — the composed bound
// the compositionality question is about.
func (s *ShardedByKey) Verdict() Verdict {
	v := Verdict{Samples: s.samples}
	for _, k := range s.keys {
		sub := s.subs[k].Samples()
		if len(sub) > 0 && sub[len(sub)-1].MinT > v.FinalMinT {
			v.FinalMinT = sub[len(sub)-1].MinT
		}
	}
	v.Trend, v.Slope = Classify(s.samples)
	return v
}

// SetSampleEvery implements Monitor (applied to every sub-monitor, current
// and future).
func (s *ShardedByKey) SetSampleEvery(n int) {
	if n < 1 {
		n = 1
	}
	s.sampleEvery = n
	for _, k := range s.keys {
		s.subs[k].SetSampleEvery(n)
	}
}

// SampleEvery implements Monitor.
func (s *ShardedByKey) SampleEvery() int { return s.sampleEvery }

// SkippedWindows implements Monitor (sum over keys).
func (s *ShardedByKey) SkippedWindows() int {
	n := 0
	for _, k := range s.keys {
		n += s.subs[k].SkippedWindows()
	}
	return n
}

// Escalations implements Monitor (sum over keys).
func (s *ShardedByKey) Escalations() int {
	n := 0
	for _, k := range s.keys {
		n += s.subs[k].Escalations()
	}
	return n
}

// MaxSampleEvery implements Monitor (max over keys).
func (s *ShardedByKey) MaxSampleEvery() int {
	n := 0
	for _, k := range s.keys {
		if m := s.subs[k].MaxSampleEvery(); m > n {
			n = m
		}
	}
	return n
}

var (
	_ Monitor = (*Incremental)(nil)
	_ Monitor = (*ShardedByWindow)(nil)
	_ Monitor = (*ShardedByKey)(nil)
	_ Monitor = (*Null)(nil)
)
