package server

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/elin-go/elin/internal/live"
)

// TestOverloadEngagesOnce: the queued high-water mark never comes down, so
// the overload controller must degrade the monitor once per run — not on
// every merge turn the mark stands, which would undo the monitor's
// near-violation escalation back to exhaustive checking a turn later.
func TestOverloadEngagesOnce(t *testing.T) {
	s, err := New(Config{Object: live.NewAtomicFetchInc("C", 0), Clients: 1, OverloadQueued: 4, SampleEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	mon := s.pipe.Monitor()
	s.queuedHW.Store(4)
	s.checkOverload()
	if got := mon.Sampling().Every; got != 8 {
		t.Fatalf("sample every %d after the overload mark was crossed, want 8", got)
	}
	mon.SetSampleEvery(1) // the monitor's escalation
	s.checkOverload()
	if got := mon.Sampling().Every; got != 1 {
		t.Fatalf("sample every %d: the controller undid the escalation", got)
	}
	go s.mergeLoop()
	sum, err := s.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Overloaded || sum.MonSampleEvery != 1 || sum.MonMaxSampleEvery != 8 {
		t.Fatalf("summary overloaded=%v sample-every=%d max=%d, want true 1 8", sum.Overloaded, sum.MonSampleEvery, sum.MonMaxSampleEvery)
	}
}

// An idle fleet's last commit is merged with no further record and no
// Shutdown: only client 1 of two runs an operation, and client 0's idle
// bound — equal to that commit's key, at the lower client id — must not
// hold it back.
func TestServerIdleFleetMergesLastCommit(t *testing.T) {
	sink := &mergedCount{}
	s, err := New(Config{Object: live.NewAtomicFetchInc("C", 0), Clients: 2, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln)
	defer s.Shutdown()
	c, err := dialClient(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	if err := c.run(1); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); sink.n.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("merged %d of the operation's 2 events in 2 s", sink.n.Load())
		}
	}
}

// lateListener hands out one connection only once it has been closed — the
// accept that races Shutdown — and refuses every Accept after that.
type lateListener struct {
	closed chan struct{}
	once   sync.Once
	conn   net.Conn
}

func (l *lateListener) Accept() (net.Conn, error) {
	<-l.closed
	if l.conn == nil {
		return nil, net.ErrClosed
	}
	c := l.conn
	l.conn = nil
	time.Sleep(10 * time.Millisecond) // let Shutdown reach its wait first
	return c, nil
}

func (l *lateListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{} }

// closeConn records that the connection's handler closed it.
type closeConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *closeConn) Close() error { c.closed.Store(true); return c.Conn.Close() }

// Shutdown waits for a connection accepted after it closed the listener:
// the accept goroutine is counted, so the handler's registration cannot
// slip in behind a wait that has already seen no connections.
func TestServerShutdownWaitsForLateAccept(t *testing.T) {
	s, err := New(Config{Object: live.NewAtomicFetchInc("C", 0), Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, cli := net.Pipe()
	cli.Close() // the handler reads EOF at once and returns
	conn := &closeConn{Conn: srv}
	s.Serve(&lateListener{closed: make(chan struct{}), conn: conn})
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !conn.closed.Load() {
		t.Fatal("Shutdown returned while a connection it accepted was still being handled")
	}
}
