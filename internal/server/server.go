package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/faults"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/live"
)

// PartitionKnockHeal is the escape hatch on a partition that cannot heal
// by traffic alone: after this many refused connection attempts the
// partition is declared healed early, so a run whose majority side has
// already finished its operations cannot deadlock the minority.
const PartitionKnockHeal = 16

// Config describes a server run.
type Config struct {
	// Object is the shared object served to every client.
	Object live.Object
	// Clients is the client id space: ids 0..Clients-1 are valid, and one
	// session is built per id up front (its shard holds no memory until the
	// id's first operation).
	Clients int
	// Monitor configures the server-side online monitor.
	Monitor check.IncrementalConfig
	// MonitorSpec selects the monitor implementation (full, sample:N, none —
	// see check.ParseMonitorSpec). The zero value is the exhaustive monitor;
	// kind none disables it.
	MonitorSpec check.MonitorSpec
	// NetFaults is the seeded network fault plane, injected at the
	// connection read/write seam (nil = no faults).
	NetFaults *faults.NetSpec
	// Sink, when non-nil, persists the merged event stream (the WAL). New
	// hands it to the server's live.Pipeline, which closes it on every
	// path: a failed New, the end of the merge, or Shutdown.
	Sink live.CommitSink
	// OverloadQueued is the high-water mark of queued requests across
	// connections at which the monitor degrades to sampling (default
	// 4096; negative disables degradation).
	OverloadQueued int
	// SampleEvery is the sampling interval the monitor degrades to under
	// overload (default 8).
	SampleEvery int
}

// queueDepth bounds each connection's request queue. A full queue stops
// the connection's reader — backpressure through TCP instead of unbounded
// memory.
const queueDepth = 64

func (c *Config) overloadQueued() int {
	if c.OverloadQueued == 0 {
		return 4096
	}
	return c.OverloadQueued
}

func (c *Config) sampleEvery() int {
	if c.SampleEvery <= 1 {
		return 8
	}
	return c.SampleEvery
}

// session is one client's server-side state, keyed by client id and
// surviving reconnects. applied/lastResp/lastTicket are touched only by
// the connection currently holding mu — the handshake takes the lock for
// the connection's lifetime, so a reconnect serializes behind the death of
// the connection it replaces.
type session struct {
	id    int
	shard *live.Shard

	mu         sync.Mutex
	applied    uint64 // operations committed for this client
	lastResp   int64  // response cache for the last applied operation
	lastTicket uint64

	// inflight is true between an operation's invoke record and its commit
	// record. The bound refresher loads the sequencer BEFORE checking
	// inflight: if inflight reads false, any operation that starts later
	// stamps at least that sequencer value, so publishing it as the
	// shard's idle bound can never overtake a future record.
	inflight atomic.Bool
}

// Summary is what a server run produced, returned by Shutdown.
type Summary struct {
	// Events is the merged history length; Commits the final commit
	// ticket.
	Events  int
	Commits uint64
	// Applied is each session's committed operation count.
	Applied []uint64
	// Verdict and Violation come from the online monitor (zero Verdict
	// when the monitor was disabled).
	Verdict   check.Verdict
	Violation *check.WindowViolation
	// Monitor degradation counters (see check.Monitor).
	MonChecks         int
	MonSkipped        int
	MonEscalations    int
	MonSampleEvery    int
	MonMaxSampleEvery int
	// Overloaded reports whether the overload controller ever engaged
	// sampling.
	Overloaded bool
	// History is the merged run (the same artifact live.Run returns).
	History *history.History
}

// Server is a running instance. Start it with Serve, stop it with
// Shutdown.
type Server struct {
	cfg Config
	ln  net.Listener

	seq      atomic.Uint64
	sessions []*session
	h        *history.History
	pipe     *live.Pipeline
	merger   *live.Merger

	queued     atomic.Int64 // requests read but not yet applied
	queuedHW   atomic.Int64 // high-water mark of queued since start
	overloaded atomic.Bool

	stop      atomic.Bool
	connWG    sync.WaitGroup // the accept goroutine and every connection
	mergeDone chan struct{}
	mergeErr  error

	dropFired []atomic.Bool // one flag per NetFaults.Drops directive
	knocks    atomic.Int64  // refused connection attempts while partitioned
	healed    atomic.Bool   // partition healed early by knocking
}

// New builds a server; Serve starts it.
func New(cfg Config) (*Server, error) {
	pipe, err := live.NewPipeline(cfg.Object, cfg.MonitorSpec, cfg.Monitor, cfg.Sink, 0, nil)
	if err != nil {
		return nil, err
	}
	if cfg.Clients <= 0 {
		pipe.Abort()
		return nil, fmt.Errorf("server: need at least one client id (got %d)", cfg.Clients)
	}
	s := &Server{
		cfg:       cfg,
		h:         history.New(),
		pipe:      pipe,
		mergeDone: make(chan struct{}),
	}
	s.sessions = make([]*session, cfg.Clients)
	shards := make([]*live.Shard, cfg.Clients)
	for i := range s.sessions {
		shards[i] = live.NewShard(0)
		s.sessions[i] = &session{id: i, shard: shards[i]}
	}
	s.merger = live.NewMerger(cfg.Object.Name(), 0, shards)
	if cfg.NetFaults != nil {
		s.dropFired = make([]atomic.Bool, len(cfg.NetFaults.Drops))
	}
	return s, nil
}

// Serve starts accepting connections on ln and starts the merge loop. It
// returns immediately; the server runs until Shutdown.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	go s.mergeLoop()
	// The accept goroutine is counted too, so that it can only add a
	// connection while the count is above zero — never after Shutdown's
	// Wait has seen it reach zero.
	s.connWG.Add(1)
	go func() {
		defer s.connWG.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed: Shutdown
			}
			s.connWG.Add(1)
			go func() {
				defer s.connWG.Done()
				s.handleConn(c)
			}()
		}
	}()
}

// Addr returns the listen address (for clients of a :0 listener).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Shutdown stops accepting, waits for live connections to die, finishes
// the shards and waits for the merge, whose last step finishes the pipeline
// (final monitor window, sink closed). The returned Summary is the run's
// artifact.
func (s *Server) Shutdown() (*Summary, error) {
	s.stop.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.connWG.Wait()
	for _, sess := range s.sessions {
		sess.shard.Finish()
	}
	<-s.mergeDone
	// No-op after the merge loop's Finish; on the merge-error path it is
	// what stops the monitor and closes the sink.
	s.pipe.Abort()

	sum := &Summary{
		Events:  s.h.Len(),
		Commits: s.seq.Load(),
		History: s.h,
	}
	for _, sess := range s.sessions {
		sum.Applied = append(sum.Applied, sess.applied)
	}
	if mon := s.pipe.Monitor(); mon != nil {
		sum.Verdict = mon.Verdict()
		sum.Violation = s.pipe.Violation()
		sum.MonChecks = mon.Checks()
		sampling := mon.Sampling()
		sum.MonSkipped = sampling.Skipped
		sum.MonEscalations = sampling.Escalations
		sum.MonSampleEvery = sampling.Every
		sum.MonMaxSampleEvery = sampling.MaxEvery
	}
	sum.Overloaded = s.overloaded.Load()
	return sum, s.mergeErr
}

// step is the merge loop's per-drain step: the commit pipeline under the
// server's policy. A monitor violation does not stop the server — the
// pipeline records it, stops checking, and it surfaces in the Summary; a
// long-lived server keeps serving and logging, so the rest of the drain
// goes down again, to the sink only.
func (s *Server) step(pos []uint64) error {
	err := s.pipe.Advance(s.h, pos)
	if err == live.ErrStop {
		err = s.pipe.Advance(s.h, pos)
	}
	return err
}

// mergeLoop drains the session shards into the history until Shutdown has
// finished them, refreshing idle bounds after every drain (so an idle or
// disconnected client never stalls the merge) and engaging the monitor's
// sampling fallback under overload. A merge error ends the loop at once;
// Shutdown reports it.
func (s *Server) mergeLoop() {
	defer close(s.mergeDone)
	s.mergeErr = s.merger.Run(s.h, s.pipe.Positions(), s.step, func() {
		s.refreshBounds()
		s.checkOverload()
	})
	if s.mergeErr == nil {
		s.mergeErr = s.pipe.Finish()
	}
}

// refreshBounds publishes the current sequencer value as the idle bound of
// every session with no operation in flight. Ordering: the sequencer is
// loaded BEFORE inflight — if inflight then reads false, any future
// operation stamps at or above the loaded value, so its records' keys are
// strictly above the (value, 0) bound.
func (s *Server) refreshBounds() {
	bound := s.seq.Load()
	for _, sess := range s.sessions {
		if !sess.inflight.Load() {
			sess.shard.SetBound(bound)
		}
	}
}

// checkOverload engages the monitor's sampling fallback when the queued
// backlog's high-water mark crosses the configured threshold — once per
// run: the mark never comes down, so engaging on every turn it stands would
// undo the monitor's own near-violation escalation back to exhaustive
// checking one merge step after it happened.
func (s *Server) checkOverload() {
	mon := s.pipe.Monitor()
	if mon == nil || s.cfg.overloadQueued() < 0 {
		return
	}
	if int(s.queuedHW.Load()) >= s.cfg.overloadQueued() && s.overloaded.CompareAndSwap(false, true) {
		mon.SetSampleEvery(s.cfg.sampleEvery())
	}
}

// ----------------------------------------------------------------------------
// Fault seam.

// severDrop reports (and fires, exactly once per directive) a drop
// directive for the client whose trigger ticket has passed.
func (s *Server) severDrop(client int) bool {
	nf := s.cfg.NetFaults
	if nf == nil {
		return false
	}
	now := s.seq.Load()
	for i, d := range nf.Drops {
		if d.Client == client && now >= d.Ticket && s.dropFired[i].CompareAndSwap(false, true) {
			return true
		}
	}
	return false
}

// partitioned reports whether the partition currently severs this client:
// the window covers the commit ticket, the client is on the minority
// (odd) side, and knocking has not healed the split early.
func (s *Server) partitioned(client int) bool {
	nf := s.cfg.NetFaults
	if nf == nil || client%2 == 0 || s.healed.Load() {
		return false
	}
	return nf.Partition.Active(s.seq.Load())
}

// sever decides whether the fault plane cuts this client's connection at
// the current seam crossing (called before processing a read and before
// writing a response).
func (s *Server) sever(client int) bool {
	return s.severDrop(client) || s.partitioned(client)
}

// refuseHello rejects a handshake mid-partition and counts the knock;
// enough knocks heal the partition early (see PartitionKnockHeal).
func (s *Server) refuseHello(client int) bool {
	if !s.partitioned(client) {
		return false
	}
	if s.knocks.Add(1) >= PartitionKnockHeal {
		s.healed.Store(true)
		return false
	}
	return true
}

// ----------------------------------------------------------------------------
// Connection handling.

// handleConn runs one connection: handshake, then the read->queue->apply
// pipeline until the connection dies, a fault severs it, or the client
// closes cleanly.
func (s *Server) handleConn(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)

	payload, err := ReadFrame(br)
	if err != nil {
		return
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		WriteFrame(c, AppendError(nil, err.Error()))
		return
	}
	id := int(hello.Client)
	if id < 0 || id >= len(s.sessions) {
		WriteFrame(c, AppendError(nil, fmt.Sprintf("server: unknown client id %d (serving %d)", id, len(s.sessions))))
		return
	}
	if s.refuseHello(id) {
		WriteFrame(c, AppendError(nil, "server: partitioned"))
		return
	}

	sess := s.sessions[id]
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if hello.Done > sess.applied {
		WriteFrame(c, AppendError(nil, fmt.Sprintf(
			"server: client %d claims %d ops done, server applied %d — lost commit", id, hello.Done, sess.applied)))
		return
	}
	if err := WriteFrame(c, AppendHelloAck(nil, HelloAck{
		Applied:    sess.applied,
		LastResp:   sess.lastResp,
		LastTicket: sess.lastTicket,
	})); err != nil {
		return
	}

	// Reader: frames -> bounded queue. A full queue blocks the reader,
	// which stops draining the socket — backpressure rides TCP flow
	// control back to the client.
	reqCh := make(chan Request, queueDepth)
	go func() {
		defer close(reqCh)
		for {
			payload, err := ReadFrame(br)
			if err != nil {
				return
			}
			req, err := DecodeRequest(payload)
			if err != nil {
				return
			}
			q := s.queued.Add(1)
			for {
				hw := s.queuedHW.Load()
				if q <= hw || s.queuedHW.CompareAndSwap(hw, q) {
					break
				}
			}
			reqCh <- req
		}
	}()
	// The reader exits only via read error, which conn close guarantees;
	// draining the queue afterwards keeps the queued counter exact.
	defer func() {
		c.Close()
		for range reqCh {
			s.queued.Add(-1)
		}
	}()

	slowUS := s.cfg.NetFaults.SlowUS(id)
	for req := range reqCh {
		s.queued.Add(-1)
		if s.stop.Load() {
			return
		}
		// Read-side seam: a triggered drop or an active partition severs
		// before the operation is processed — the client resends after
		// reconnecting.
		if s.sever(id) {
			return
		}
		var resp Response
		switch {
		case req.OpIndex == sess.applied:
			op := req.Op
			// inflight before the stamp: see session.inflight.
			sess.inflight.Store(true)
			stamp := s.seq.Load()
			sess.shard.PushInvoke(stamp, op)
			r, ticket, err := s.cfg.Object.Apply(id, op, &s.seq)
			if err != nil {
				sess.inflight.Store(false)
				WriteFrame(c, AppendError(nil, fmt.Sprintf("server: apply: %v", err)))
				return
			}
			sess.shard.PushCommit(ticket, r, op)
			sess.applied++
			sess.lastResp, sess.lastTicket = r, ticket
			sess.inflight.Store(false)
			resp = Response{OpIndex: req.OpIndex, Resp: r, Ticket: ticket}
		case sess.applied > 0 && req.OpIndex == sess.applied-1:
			// Retry of the last applied operation: replay the cache, never
			// re-apply, never re-record.
			resp = Response{OpIndex: req.OpIndex, Resp: sess.lastResp, Ticket: sess.lastTicket}
		default:
			WriteFrame(c, AppendError(nil, fmt.Sprintf(
				"server: client %d op index %d out of sequence (applied %d)", id, req.OpIndex, sess.applied)))
			return
		}
		// Write-side seam: drops and partitions can cut between the apply
		// and the response — the case the resume cache exists for; slow
		// links delay every response.
		if s.sever(id) {
			return
		}
		if slowUS > 0 {
			time.Sleep(time.Duration(slowUS) * time.Microsecond)
		}
		if err := WriteFrame(c, AppendResponse(nil, resp)); err != nil {
			return
		}
	}
}
