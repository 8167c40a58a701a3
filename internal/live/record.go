package live

import (
	"fmt"
	"sync/atomic"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// rec is one recorded event in a client's shard. Commit records carry the
// commit ticket in pos; invocation records carry the sequencer stamp read
// at operation start (the number of commits provably before the start).
type rec struct {
	pos    uint64
	invoke bool
	resp   int64
	op     spec.Op
}

// key orders the merged run: commit t sits at (t,0), an invocation stamped
// g in the gap after commit g at (g,1). Ties between invocations of
// different clients are broken by client id in the merger (invocation
// order among concurrent starts carries no precedence information).
func (r *rec) key() (uint64, int) {
	if r.invoke {
		return r.pos, 1
	}
	return r.pos, 0
}

// Shard is one client's private recorder. The owning goroutine writes into
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
type Shard struct {
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

// NewShard builds a client recorder. capacity > 0 preallocates a
// fixed-size shard (push fails on overflow); capacity 0 makes the shard
// growable.
func NewShard(capacity int) *Shard {
	s := &Shard{fixed: capacity > 0}
	if capacity == 0 {
		capacity = 64
	}
	buf := make([]rec, capacity)
	s.recs.Store(&buf)
	return s
}

// push appends one record. It returns false when a fixed capacity is
// exhausted.
func (s *Shard) push(r rec) bool {
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
func (s *Shard) PushInvoke(stamp uint64, op spec.Op) bool {
	return s.push(rec{pos: stamp, invoke: true, op: op})
}

// PushCommit records an operation completion carrying its commit ticket
// and response.
func (s *Shard) PushCommit(ticket uint64, resp int64, op spec.Op) bool {
	return s.push(rec{pos: ticket, resp: resp, op: op})
}

// Finish marks the shard complete (no further pushes will come).
func (s *Shard) Finish() { s.done.Store(true) }

// SetBound publishes the idle watermark: a promise that every record the
// owner pushes from now on has key strictly greater than (pos, 0). Callers
// must only advance it, and must read the sequencer stamp for pos only
// while the client provably has no operation in flight.
func (s *Shard) SetBound(pos uint64) { s.bound.Store(pos + 1) }

// Merger performs the online k-way merge of client shards into one
// history.History in key order. Safety is a per-client watermark argument:
// a client's records are pushed in strictly increasing key order, and its
// next unpublished record's key is strictly greater than its last
// published one, so any available record whose key is at most every
// unfinished drained client's watermark can never be preceded by a record
// that has not been published yet.
type Merger struct {
	objName string
	// procBase offsets recorded proc ids: shard i's events are appended as
	// proc procBase+i, so a continuation run's fresh clients never collide
	// with the proc ids of a recovered history prefix.
	procBase int
	shards   []*Shard
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

// NewMerger builds the merge over the given client shards: shard i's
// events are appended to the history as proc procBase+i on object objName.
func NewMerger(objName string, procBase int, shards []*Shard) *Merger {
	m := &Merger{
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

// keyLess compares (pos,kind,client) triples.
func keyLess(p1 uint64, k1, c1 int, p2 uint64, k2, c2 int) bool {
	if p1 != p2 {
		return p1 < p2
	}
	if k1 != k2 {
		return k1 < k2
	}
	return c1 < c2
}

// Drain merges every safely-ordered published record into h, invoking feed
// (if non-nil) on each appended event with its merge position (commit
// ticket for responses, sequencer stamp for invocations — what a commit
// sink persists). It returns the number of events appended; call it
// repeatedly until the run completes. Shard progress is snapshotted once
// per call (one atomic load per shard), which is sound — records published
// mid-drain are merged by the next call.
func (m *Merger) Drain(h *history.History, feed func(history.Event, uint64) error) (int, error) {
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
			if best < 0 || keyLess(p, k, i, bp, bk, best) {
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
			if b := sh.bound.Load(); b > 0 && keyLess(wp, wk, i, b-1, 0, i) {
				wp, wk = b-1, 0
			}
			if keyLess(wp, wk, i, bp, bk, best) {
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
