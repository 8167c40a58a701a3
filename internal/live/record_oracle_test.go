package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// The slice-backed recorder the chunked one replaced (a fixed array or a
// doubling one behind an atomic pointer), kept as the reference that
// TestShardMatchesSliceReference compares against. Test-only: nothing else
// may use it.

// refShard is one client's private recorder. The owning goroutine writes into
// an array and publishes progress with one atomic length store per record —
// the only hot-path synchronization besides the commit sequencer itself.
//
// With a positive capacity the array never reallocates and push reports
// overflow (the in-process runtime preallocates the exact op budget, so
// overflow indicates an accounting bug rather than load). With capacity 0
// the shard grows: the writer copies into a doubled array and publishes the
// new slice pointer before publishing a length beyond the old capacity, so
// a reader that loads the length first and the pointer second always sees
// an array covering that length — what a long-lived server needs for
// sessions with no a-priori op budget.
type refShard struct {
	recs atomic.Pointer[[]rec]
	n    atomic.Int64
	done atomic.Bool
	// bound publishes an idle watermark as pos+1 (0 = unset): the owner
	// promises every future record's key exceeds (pos, 0). The merger takes
	// the larger of this and the last consumed key as the shard's
	// watermark, so one idle or disconnected client cannot stall the merge
	// behind records it will never write.
	bound atomic.Uint64
	w     int  // writer-local count (== n, unpublished view)
	fixed bool // capacity is a hard limit; push reports overflow
}

// newRefShard builds a client recorder. capacity > 0 preallocates a
// fixed-size shard (push fails on overflow); capacity 0 makes the shard
// growable.
func newRefShard(capacity int) *refShard {
	s := &refShard{fixed: capacity > 0}
	if capacity == 0 {
		capacity = 64
	}
	buf := make([]rec, capacity)
	s.recs.Store(&buf)
	return s
}

// push appends one record. It returns false when a fixed capacity is
// exhausted.
func (s *refShard) push(r rec) bool {
	buf := *s.recs.Load()
	if s.w >= len(buf) {
		if s.fixed {
			return false
		}
		grown := make([]rec, 2*len(buf))
		copy(grown, buf)
		// Pointer before length: a concurrent reader ordering its loads
		// length-then-pointer can never see a length past an array that
		// does not cover it.
		s.recs.Store(&grown)
		buf = grown
	}
	buf[s.w] = r
	s.w++
	s.n.Store(int64(s.w))
	return true
}

// PushInvoke records an operation start carrying the sequencer stamp read
// at the linearization-window open.
func (s *refShard) PushInvoke(stamp uint64, op spec.Op) bool {
	return s.push(rec{pos: stamp, invoke: true, op: op})
}

// PushCommit records an operation completion carrying its commit ticket
// and response.
func (s *refShard) PushCommit(ticket uint64, resp int64, op spec.Op) bool {
	return s.push(rec{pos: ticket, resp: resp, op: op})
}

// Finish marks the shard complete (no further pushes will come).
func (s *refShard) Finish() { s.done.Store(true) }

// SetBound publishes the idle watermark: a promise that every record the
// owner pushes from now on has key strictly greater than (pos, 0). Callers
// must only advance it, and must read the sequencer stamp for pos only
// while the client provably has no operation in flight.
func (s *refShard) SetBound(pos uint64) { s.bound.Store(pos + 1) }

// refMerger performs the online k-way merge of client shards into one
// history.History in key order. Safety is a per-client watermark argument:
// a client's records are pushed in strictly increasing key order, and its
// next unpublished record's key is strictly greater than its last
// published one, so any available record whose key is at most every
// unfinished drained client's watermark can never be preceded by a record
// that has not been published yet.
type refMerger struct {
	objName string
	// procBase offsets recorded proc ids: shard i's events are appended as
	// proc procBase+i, so a continuation run's fresh clients never collide
	// with the proc ids of a recovered history prefix.
	procBase int
	shards   []*refShard
	cursor   []int
	// lastPos/lastInv track each shard's last consumed key (the watermark
	// for drained shards). The initial (0,-1) watermark is below every real
	// key, so nothing is merged until every client has published its first
	// record or an idle bound — required, since an unstarted client's first
	// invocation may be stamped 0.
	lastPos []uint64
	lastInv []int
	// nBuf/doneBuf are the per-drain snapshot scratch.
	nBuf    []int
	doneBuf []bool
	recBuf  [][]rec
}

// newRefMerger builds the merge over the given client shards: shard i's
// events are appended to the history as proc procBase+i on object objName.
func newRefMerger(objName string, procBase int, shards []*refShard) *refMerger {
	m := &refMerger{
		objName:  objName,
		procBase: procBase,
		shards:   shards,
		cursor:   make([]int, len(shards)),
		lastPos:  make([]uint64, len(shards)),
		lastInv:  make([]int, len(shards)),
		nBuf:     make([]int, len(shards)),
		doneBuf:  make([]bool, len(shards)),
		recBuf:   make([][]rec, len(shards)),
	}
	for i := range m.lastInv {
		m.lastInv[i] = -1 // (0,-1): below the smallest possible key
	}
	return m
}

// Drain merges every safely-ordered published record into h, invoking feed
// (if non-nil) on each appended event with its merge position (commit
// ticket for responses, sequencer stamp for invocations — what a commit
// sink persists). It returns the number of events appended; call it
// repeatedly until the run completes. refShard progress is snapshotted once
// per call (one atomic load per shard), which is sound — records published
// mid-drain are merged by the next call.
func (m *refMerger) Drain(h *history.History, feed func(history.Event, uint64) error) (int, error) {
	n, done, recs := m.nBuf, m.doneBuf, m.recBuf
	for i, sh := range m.shards {
		// done before n: a shard observed done has pushed everything, so
		// the later n load is guaranteed to cover its final records (the
		// reverse order could skip the watermark of a shard whose last
		// records are invisible in this snapshot). And n before the array
		// pointer: a growing shard publishes the doubled array before any
		// length beyond the old one, so this order can never observe a
		// length past the loaded array's end.
		done[i] = sh.done.Load()
		n[i] = int(sh.n.Load())
		recs[i] = *sh.recs.Load()
	}
	moved := 0
	for {
		best := -1
		var bp uint64
		var bk int
		for i := range m.shards {
			c := m.cursor[i]
			if c >= n[i] {
				continue
			}
			p, k := recs[i][c].key()
			if best < 0 || keyLess(p, k, bp, bk) {
				best, bp, bk = i, p, k
			}
		}
		if best < 0 {
			return moved, nil
		}
		// Watermark check: every unfinished, fully-drained shard may still
		// publish a record with key greater than its watermark — the larger
		// of its last consumed key and its published idle bound; the
		// candidate is safe only if it is at or below all such watermarks.
		safe := true
		for i, sh := range m.shards {
			if m.cursor[i] < n[i] || done[i] {
				continue
			}
			wp, wk := m.lastPos[i], m.lastInv[i]
			if b := sh.bound.Load(); b > 0 && keyLess(wp, wk, b-1, 0) {
				wp, wk = b-1, 0
			}
			if keyLess(wp, wk, bp, bk) {
				safe = false
				break
			}
		}
		if !safe {
			return moved, nil
		}
		r := &recs[best][m.cursor[best]]
		m.cursor[best]++
		m.lastPos[best], m.lastInv[best] = bp, bk
		e := history.Event{Kind: history.KindRespond, Proc: m.procBase + best, Obj: m.objName, Resp: r.resp}
		if r.invoke {
			e = history.Event{Kind: history.KindInvoke, Proc: m.procBase + best, Obj: m.objName, Op: r.op}
		}
		if err := h.Append(e); err != nil {
			return moved, fmt.Errorf("live: merge: %w", err)
		}
		if feed != nil {
			if err := feed(e, r.pos); err != nil {
				return moved, err
			}
		}
		moved++
	}
}

// recorder is what a schedule drives on either side.
type recorder interface {
	PushInvoke(stamp uint64, op spec.Op) bool
	PushCommit(ticket uint64, resp int64, op spec.Op) bool
	SetBound(pos uint64)
	Finish()
}

// scheduleShape seeds one random schedule: the trial's generator, its
// number of clients (1–5), and how rarely it drains at random. Drains come
// often in a third of the trials (the merger follows the writer inside one
// chunk and every chunk is recycled), rarely in another (chunks pile up and
// are allocated fresh) and in bursts in the rest.
func scheduleShape(trial int) (r *rand.Rand, k, drainGap int) {
	r = rand.New(rand.NewSource(int64(trial) + 1))
	return r, 1 + r.Intn(5), []int{4, 40 * chunkLen, 3 * chunkLen}[trial%3]
}

// playSchedule plays one random single-threaded schedule of pushes, idle
// bounds and finishes on len(rs) clients, client i's on every recorder in
// rs[i] alike, each client crossing at least three chunk boundaries. It
// calls drain at random moments and twice at the end. A commit's response
// is 3·ticket + client.
func playSchedule(r *rand.Rand, drainGap int, rs [][]recorder, drain func(step int)) {
	ops := []spec.Op{
		spec.MakeOp(spec.MethodFetchInc),
		spec.MakeOp1(spec.MethodWrite, 7),
		spec.MakeOp2(spec.MethodCAS, 3, 4),
	}
	k := len(rs)
	left := make([]int, k) // operations the client has still to start
	for i := range left {
		// 2 records an operation: past 3 boundaries, up to 5.
		left[i] = 3*chunkLen/2 + 1 + r.Intn(chunkLen)
	}
	var seq uint64
	open := make([]bool, k)    // an operation is in flight
	opOf := make([]spec.Op, k) // the operation in flight
	finished := make([]bool, k)
	pushed := make([]int, k) // records pushed so far
	live := k
	for step := 0; live > 0; step++ {
		i := r.Intn(k)
		// Besides the random drains, half of the moments a shard has just
		// filled a chunk exactly: the cursor then rests on the chunk's end
		// while the writer moves on, the state in which a chunk handed back
		// too early is overwritten or relinked.
		if r.Intn(drainGap) == 0 || pushed[i] > 0 && pushed[i]%chunkLen == 0 && r.Intn(2) == 0 {
			drain(step)
		}
		if finished[i] {
			continue
		}
		switch {
		case open[i]:
			seq++
			for _, s := range rs[i] {
				s.PushCommit(seq, int64(seq)*3+int64(i), opOf[i])
			}
			open[i] = false
			pushed[i]++
		case left[i] == 0:
			for _, s := range rs[i] {
				s.Finish()
			}
			finished[i] = true
			live--
		case r.Intn(16) == 0:
			for _, s := range rs[i] {
				s.SetBound(seq)
			}
		default:
			opOf[i] = ops[r.Intn(len(ops))]
			for _, s := range rs[i] {
				s.PushInvoke(seq, opOf[i])
			}
			open[i] = true
			left[i]--
			pushed[i]++
		}
	}
	drain(-1)
	drain(-2)
}

// Random schedules applied to the chunked recorder and to the slice-backed
// reference: every drain moves the same number of events, the feed sees the
// same positions and the merged histories have the same fingerprint.
func TestShardMatchesSliceReference(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		r, k, drainGap := scheduleShape(trial)
		shards := make([]*Shard, k)
		refs := make([]*refShard, k)
		rs := make([][]recorder, k)
		for i := range shards {
			shards[i], refs[i] = NewShard(0), newRefShard(0)
			rs[i] = []recorder{shards[i], refs[i]}
		}
		m, rm := NewMerger("C", 0, shards), newRefMerger("C", 0, refs)
		h, rh := history.New(), history.New()
		var pos, rpos []uint64
		playSchedule(r, drainGap, rs, func(step int) {
			t.Helper()
			n, err := m.Drain(h, func(_ history.Event, p uint64) error { pos = append(pos, p); return nil })
			rn, rerr := rm.Drain(rh, func(_ history.Event, p uint64) error { rpos = append(rpos, p); return nil })
			if err != nil || rerr != nil {
				t.Fatalf("trial %d step %d: drain errors %v / reference %v", trial, step, err, rerr)
			}
			if n != rn {
				t.Fatalf("trial %d step %d: drain moved %d events, reference %d", trial, step, n, rn)
			}
		})

		want := 0
		for i := range refs {
			want += int(refs[i].n.Load())
		}
		if rh.Len() != want {
			t.Fatalf("trial %d: reference merged %d of %d records", trial, rh.Len(), want)
		}
		if !bytes.Equal(h.AppendFingerprint(nil), rh.AppendFingerprint(nil)) {
			t.Fatalf("trial %d: merged history differs from the reference's (%d events against %d)", trial, h.Len(), rh.Len())
		}
		if !slices.Equal(pos, rpos) {
			t.Fatalf("trial %d: feed positions differ from the reference's", trial)
		}
	}
}

// The same schedules drained with a nil feed and with a recording one: the
// merged histories are byte-identical, and the feed sees exactly the merged
// events, each with its merge position. Tickets are dense, so that position
// is the number of responses up to and including the event: a commit's
// ticket, or the stamp of an invocation merged right after commit stamp.
func TestMergerNilFeedSameHistory(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		r, k, drainGap := scheduleShape(trial)
		bare, fed := make([]*Shard, k), make([]*Shard, k)
		rs := make([][]recorder, k)
		for i := range bare {
			bare[i], fed[i] = NewShard(0), NewShard(0)
			rs[i] = []recorder{bare[i], fed[i]}
		}
		m, fm := NewMerger("C", 0, bare), NewMerger("C", 0, fed)
		h, fh := history.New(), history.New()
		var events []history.Event
		var pos []uint64
		playSchedule(r, drainGap, rs, func(step int) {
			t.Helper()
			n, err := m.Drain(h, nil)
			fn, ferr := fm.Drain(fh, func(e history.Event, p uint64) error {
				events, pos = append(events, e), append(pos, p)
				return nil
			})
			if err != nil || ferr != nil || n != fn {
				t.Fatalf("trial %d step %d: nil feed moved %d (%v), recording feed %d (%v)", trial, step, n, err, fn, ferr)
			}
		})
		if !bytes.Equal(h.AppendFingerprint(nil), fh.AppendFingerprint(nil)) {
			t.Fatalf("trial %d: the nil feed merged a different history (%d events against %d)", trial, h.Len(), fh.Len())
		}
		if len(events) != h.Len() {
			t.Fatalf("trial %d: feed saw %d of %d events", trial, len(events), h.Len())
		}
		var responses uint64
		for i, e := range events {
			if e.Kind == history.KindRespond {
				responses++
			}
			if e != h.Event(i) || pos[i] != responses {
				t.Fatalf("trial %d event %d: feed saw %v at %d, want %v at %d", trial, i, e, pos[i], h.Event(i), responses)
			}
		}
	}
}
