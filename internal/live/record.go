package live

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

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
// order among concurrent starts carries no precedence information); the
// watermarks that decide what is safe to merge compare (pos, kind) alone.
func (r *rec) key() (uint64, int) {
	if r.invoke {
		return r.pos, 1
	}
	return r.pos, 0
}

// chunkLen is the number of records in one chunk of a shard: one short of
// 64 KiB of records, so that a chunk with its link is 64 KiB of heap and not
// the nine pages the allocator would round 64 KiB + 8 B up to. DESIGN.md
// "Live runtime" has the measurement behind the size.
const chunkLen = (64<<10)/64 - 1

// chunk is one fixed-length segment of a shard's queue. The writer fills
// recs front to back; next is set once, by the writer, before the first
// record of the following chunk is published.
type chunk struct {
	recs [chunkLen]rec
	next atomic.Pointer[chunk]
}

// Shard is one client's private recorder: a single-writer, single-reader
// queue of chunks. The owning goroutine writes a record and publishes it
// with one atomic length store — the only hot-path synchronization besides
// the commit sequencer itself. A push that starts a chunk links it (head for
// the first, the previous chunk's next otherwise) BEFORE that store, so a
// reader that loads the length first and follows links second always finds
// the chunk holding any record the length covers.
//
// Exactly one goroutine pushes and exactly one Merger reads, for the life of
// the shard. The merger hands each chunk its cursor has left back through
// spare, and the writer takes it in preference to allocating: a shard whose
// merger keeps up cycles through two chunks for ever. spare is one slot — a
// chunk that finds it occupied is left to the collector — so a shard that
// once lagged keeps at most that one chunk beyond the ones still unread.
//
// The writer yields before each chunk after the first: writers that never
// block would hold every P until preemption (10 ms), starving a merger that
// slept; yielding before taking spare lets that merger refill it.
//
// The writer dirties this struct's cache line on every push, so the merger
// loads it once per drain and keeps everything it reads per event in its own
// cursor.
type Shard struct {
	n    atomic.Int64
	done atomic.Bool
	// bound publishes an idle watermark as pos+1 (0 = unset): the owner
	// promises every future record's key exceeds (pos, 0). The merger takes
	// the larger of this and the last consumed key as the shard's
	// watermark, so one idle or disconnected client cannot stall the merge
	// behind records it will never write — nor behind a record of another
	// client whose key equals it.
	bound atomic.Uint64
	head  atomic.Pointer[chunk] // first chunk; the merger takes it
	spare atomic.Pointer[chunk] // one consumed chunk awaiting reuse
	tail  *chunk                // writer-local: the chunk being filled
	w     int                   // writer-local count (== n, unpublished view)
	limit int                   // > 0: push reports overflow at this count
}

// NewShard builds a client recorder. It allocates no chunk: the first push
// does. capacity > 0 is the number of records after which push reports
// overflow (the in-process runtime passes its exact op budget, so overflow
// indicates an accounting bug rather than load); capacity 0 is unbounded.
func NewShard(capacity int) *Shard {
	return &Shard{limit: capacity}
}

// push appends one record. It returns false once a positive capacity is
// exhausted.
func (s *Shard) push(r rec) bool {
	if s.limit > 0 && s.w >= s.limit {
		return false
	}
	at := s.w % chunkLen
	if at == 0 {
		if s.w > 0 {
			runtime.Gosched()
		}
		c := s.spare.Swap(nil)
		if c == nil {
			c = new(chunk)
		}
		// Link before length: the record below is published by the n store,
		// and a reader that has seen that n must be able to reach c.
		if s.tail == nil {
			s.head.Store(c)
		} else {
			s.tail.next.Store(c)
		}
		s.tail = c
	}
	s.tail.recs[at] = r
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
// owner pushes from now on has key strictly greater than (pos, 0), so the
// merger may release any other client's record at or below (pos, 0) —
// the commit at pos included. Callers must only advance it, and must read
// the sequencer stamp for pos only while the client provably has no
// operation in flight.
func (s *Shard) SetBound(pos uint64) { s.bound.Store(pos + 1) }

// cursor is the merger's place in one shard.
type cursor struct {
	sh   *Shard
	c    *chunk // chunk holding the next record to merge; nil before the first
	at   int    // index of that record in c; chunkLen once c is exhausted
	read int    // records merged so far
	// lastPos/lastInv are the last consumed key (the watermark of a drained
	// shard). The initial (0,-1) watermark is below every real key, so
	// nothing is merged until every client has published its first record
	// or an idle bound — required, since an unstarted client's first
	// invocation may be stamped 0.
	lastPos uint64
	lastInv int
	// n/done/bound are the per-drain snapshot of the shard's progress.
	n     int
	done  bool
	bound uint64
}

// Merger performs the online k-way merge of client shards into one
// history.History in key order. Safety is a per-client watermark argument:
// a client's records are pushed in strictly increasing (pos, kind) order,
// and both of its watermarks — the last consumed key and the idle bound —
// promise that every record it has yet to publish is strictly above them
// in that order. So any available record whose (pos, kind) is at most every
// unfinished drained client's watermark can never be preceded by a record
// that has not been published yet, whatever the client ids.
type Merger struct {
	objName string
	// procBase offsets recorded proc ids: shard i's events are appended as
	// proc procBase+i, so a continuation run's fresh clients never collide
	// with the proc ids of a recovered history prefix.
	procBase int
	cur      []cursor // one per shard, in client order
	// allDone is whether the last Drain's snapshot saw every shard done:
	// that drain held nothing back, so the shards are consumed.
	allDone bool
	pos     []uint64 // Run's reused merge positions of one drain
}

// NewMerger builds the merge over the given client shards: shard i's
// events are appended to the history as proc procBase+i on object objName.
// A shard belongs to one Merger: the merger takes the shard's chunks as it
// reads them.
func NewMerger(objName string, procBase int, shards []*Shard) *Merger {
	m := &Merger{
		objName:  objName,
		procBase: procBase,
		cur:      make([]cursor, len(shards)),
	}
	for i, sh := range shards {
		m.cur[i] = cursor{sh: sh, lastInv: -1} // (0,-1): below the smallest possible key
	}
	return m
}

// front returns the shard's next unmerged record. The caller has seen
// read < n in a snapshot of the shard's length, which is what makes the
// links followed here non-nil: the writer set them before publishing that
// length. Leaving a chunk is the only point at which it is recycled — a
// record past it is published, so the writer is done with it and has
// already linked its successor.
func (cu *cursor) front() *rec {
	switch {
	case cu.c == nil:
		cu.c, cu.at = cu.sh.head.Swap(nil), 0
	case cu.at == chunkLen:
		old := cu.c
		cu.c, cu.at = old.next.Load(), 0
		old.next.Store(nil)
		cu.sh.spare.CompareAndSwap(nil, old)
	}
	return &cu.c.recs[cu.at]
}

// keyLess compares (pos,kind) keys. The merge breaks a tie by client id by
// scanning the shards in client order and keeping the first least key.
func keyLess(p1 uint64, k1 int, p2 uint64, k2 int) bool {
	if p1 != p2 {
		return p1 < p2
	}
	return k1 < k2
}

// Drain merges every safely-ordered published record into h, invoking feed
// (if non-nil) on each appended event with its merge position (commit
// ticket for responses, sequencer stamp for invocations — what a commit
// sink persists). Records go into h through Invoke and Respond, and a nil
// feed builds no history.Event at all. It returns the number of events
// appended; call it repeatedly until the run completes. Shard progress is
// snapshotted once per call (done, bound and n of each shard), which is
// sound — records published mid-drain are merged by the next call.
func (m *Merger) Drain(h *history.History, feed func(history.Event, uint64) error) (int, error) {
	return m.drain(h, feed, false)
}

// drain is Drain, also appending merge positions to m.pos under keepPos,
// up to posLimit of them.
func (m *Merger) drain(h *history.History, feed func(history.Event, uint64) error, keepPos bool) (int, error) {
	m.allDone = true
	for i := range m.cur {
		cu := &m.cur[i]
		// done and bound before n: a shard observed done has pushed
		// everything, and a bound was published after every record pushed
		// before it, so the later n load is guaranteed to cover those
		// records (the reverse order could take the watermark of a shard
		// whose last records are invisible in this snapshot). And n before
		// any chunk link (front): the writer links a chunk before it
		// publishes a length reaching into it.
		cu.done = cu.sh.done.Load()
		cu.bound = cu.sh.bound.Load()
		cu.n = int(cu.sh.n.Load())
		m.allDone = m.allDone && cu.done
	}
	moved := 0
	for {
		if keepPos && len(m.pos) == posLimit {
			m.allDone = false // what is left is the next drain's
			return moved, nil
		}
		best := -1
		var bp uint64
		var bk int
		var r *rec
		for i := range m.cur {
			cu := &m.cur[i]
			if cu.read >= cu.n {
				continue
			}
			f := cu.front()
			p, k := f.key()
			if best < 0 || keyLess(p, k, bp, bk) {
				best, bp, bk, r = i, p, k, f
			}
		}
		if best < 0 {
			return moved, nil
		}
		// Watermark check: every unfinished, fully-drained shard may still
		// publish a record with key greater than its watermark — the larger
		// of its last consumed key and its published idle bound; the
		// candidate is safe only if it is at or below all such watermarks.
		// Client ids take no part: both watermarks are strict promises, so
		// a record equal to one can never be overtaken.
		safe := true
		for i := range m.cur {
			cu := &m.cur[i]
			if cu.read < cu.n || cu.done {
				continue
			}
			wp, wk := cu.lastPos, cu.lastInv
			if b := cu.bound; b > 0 && keyLess(wp, wk, b-1, 0) {
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
		cu := &m.cur[best]
		cu.at++
		cu.read++
		cu.lastPos, cu.lastInv = bp, bk
		proc := m.procBase + best
		var err error
		if r.invoke {
			err = h.Invoke(proc, m.objName, r.op)
		} else {
			err = h.Respond(proc, r.resp)
		}
		if err != nil {
			return moved, fmt.Errorf("live: merge: %w", err)
		}
		if keepPos {
			m.pos = append(m.pos, r.pos)
		}
		if feed != nil {
			e := history.Event{Kind: history.KindRespond, Proc: proc, Obj: m.objName, Resp: r.resp}
			if r.invoke {
				e = history.Event{Kind: history.KindInvoke, Proc: proc, Obj: m.objName, Op: r.op}
			}
			if err := feed(e, r.pos); err != nil {
				return moved, err
			}
		}
		moved++
	}
}

// idleWait is how long Run sleeps after a drain that moved nothing.
const idleWait = 200 * time.Microsecond

// posLimit is the most events a drain that keeps positions merges, so that
// Run's one slice of positions (32 KiB) never grows with the merger's lag.
const posLimit = 4096

// Run is the merge loop both drivers share: it drains into h, calls step
// (if non-nil) behind every drain with the drain's merge positions (nil
// unless keepPos), after (if non-nil) behind every drain but the last, and
// sleeps idleWait only after a drain that moved nothing; while writers run,
// their once-a-chunk yield in push, not that sleep, gets it a core. It
// returns nil after the step of the first drain whose own snapshot saw
// every shard done — that drain held nothing back, so every record has been
// merged — and a merge or step error (ErrStop included) at once, leaving
// what to do about it to the driver.
func (m *Merger) Run(h *history.History, keepPos bool, step func(pos []uint64) error, after func()) error {
	if keepPos {
		m.pos = make([]uint64, 0, posLimit)
	}
	for {
		m.pos = m.pos[:0]
		n, err := m.drain(h, nil, keepPos)
		if err == nil && step != nil {
			err = step(m.pos)
		}
		if err != nil || m.allDone {
			return err
		}
		if after != nil {
			after()
		}
		if n == 0 {
			time.Sleep(idleWait)
		}
	}
}
