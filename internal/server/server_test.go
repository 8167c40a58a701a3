package server_test

import (
	"bufio"
	"errors"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/faults"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/loadgen"
	"github.com/elin-go/elin/internal/server"
	"github.com/elin-go/elin/internal/wal"
)

// startServer stands up a server on 127.0.0.1:0 and returns it with its
// address.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln)
	return s, ln.Addr().String()
}

// load runs a fleet against addr and requires every client to succeed.
func load(t *testing.T, cfg loadgen.Config) *loadgen.Result {
	t.Helper()
	res, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatalf("loadgen: %v (result %+v)", err, res)
	}
	return res
}

func requireExactlyOnce(t *testing.T, res *loadgen.Result) {
	t.Helper()
	if res.Lost != 0 || res.Duplicated != 0 {
		t.Fatalf("exactly-once broken: lost=%d duplicated=%d (completed %d)",
			res.Lost, res.Duplicated, res.Completed)
	}
}

func TestServeBasic(t *testing.T) {
	const clients, ops = 4, 200
	s, addr := startServer(t, server.Config{
		Object:  live.NewAtomicFetchInc("C", 0),
		Clients: clients,
		Monitor: check.IncrementalConfig{Stride: 64, MaxT: 0},
	})
	res := load(t, loadgen.Config{
		Addr: addr, Clients: clients, Ops: ops,
		Gen: live.FetchIncGen(), Seed: 1,
	})
	requireExactlyOnce(t, res)
	sum, err := s.Shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if sum.Violation != nil {
		t.Fatalf("monitor violation on a linearizable object: %v", sum.Violation)
	}
	if sum.Commits != clients*ops {
		t.Fatalf("commits = %d, want %d", sum.Commits, clients*ops)
	}
	if sum.Events != 2*clients*ops {
		t.Fatalf("events = %d, want %d", sum.Events, 2*clients*ops)
	}
	for id, a := range sum.Applied {
		if a != ops {
			t.Fatalf("session %d applied %d, want %d", id, a, ops)
		}
	}
}

// The acceptance headline: under flaky-net (drops, a slow link, one
// partition-and-heal) the fleet completes with zero lost and zero
// duplicated commits and the monitor verdict matches the fault-free
// baseline (no violation, same commit count).
func TestServeFlakyNetExactlyOnce(t *testing.T) {
	const clients, ops = 4, 150
	nf, err := faults.ParseNet("drop:0@40,drop:1@80,slow:2:200,partition:120+40")
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, server.Config{
		Object:    live.NewAtomicFetchInc("C", 0),
		Clients:   clients,
		Monitor:   check.IncrementalConfig{Stride: 64, MaxT: 0},
		NetFaults: nf,
	})
	res := load(t, loadgen.Config{
		Addr: addr, Clients: clients, Ops: ops,
		Gen: live.FetchIncGen(), Seed: 7,
	})
	requireExactlyOnce(t, res)
	if res.Reconnects == 0 {
		t.Fatal("flaky-net run saw no reconnects — faults did not fire")
	}
	sum, err := s.Shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if sum.Violation != nil {
		t.Fatalf("faulted run violated: %v", sum.Violation)
	}
	if sum.Commits != clients*ops {
		t.Fatalf("commits = %d, want %d (faults must not duplicate or lose commits)",
			sum.Commits, clients*ops)
	}
	if sum.Events != 2*clients*ops {
		t.Fatalf("events = %d, want %d (resumed ops must not re-record)",
			sum.Events, 2*clients*ops)
	}
}

// A partition severs the odd clients and heals when the even side's
// commits move the ticket past the window (or by knocking): everyone
// finishes, exactly once.
func TestServePartitionHeals(t *testing.T) {
	const clients, ops = 4, 120
	nf, err := faults.ParseNet("partition:60+40")
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, server.Config{
		Object:    live.NewAtomicFetchInc("C", 0),
		Clients:   clients,
		Monitor:   check.IncrementalConfig{Stride: 64, MaxT: 0},
		NetFaults: nf,
	})
	res := load(t, loadgen.Config{
		Addr: addr, Clients: clients, Ops: ops,
		Gen: live.FetchIncGen(), Seed: 3,
	})
	requireExactlyOnce(t, res)
	sum, err := s.Shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if sum.Violation != nil {
		t.Fatalf("partitioned run violated: %v", sum.Violation)
	}
	if sum.Commits != clients*ops {
		t.Fatalf("commits = %d, want %d", sum.Commits, clients*ops)
	}
}

// Overload degrades the monitor to sampling, and the Summary reports it.
func TestServeOverloadSampling(t *testing.T) {
	const clients, ops = 8, 300
	s, addr := startServer(t, server.Config{
		Object:         live.NewAtomicFetchInc("C", 0),
		Clients:        clients,
		Monitor:        check.IncrementalConfig{Stride: 64, MaxT: 0},
		OverloadQueued: 1, // any backlog at all counts as overload
		SampleEvery:    4,
	})
	res := load(t, loadgen.Config{
		Addr: addr, Clients: clients, Ops: ops,
		Gen: live.FetchIncGen(), Seed: 1,
	})
	requireExactlyOnce(t, res)
	sum, err := s.Shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !sum.Overloaded {
		t.Fatal("overload controller never engaged at threshold 1")
	}
	if sum.MonMaxSampleEvery != 4 {
		t.Fatalf("MonMaxSampleEvery = %d, want 4", sum.MonMaxSampleEvery)
	}
	if sum.MonSkipped == 0 {
		t.Fatal("sampling engaged but no window was skipped")
	}
	if sum.Violation != nil {
		t.Fatalf("clean overloaded run violated: %v", sum.Violation)
	}
}

// A WAL-backed server persists the merged stream: recovery reads back
// exactly the events the server merged, with the last commit matching the
// final ticket.
func TestServeWALPersistsMergedStream(t *testing.T) {
	const clients, ops = 3, 100
	path := filepath.Join(t.TempDir(), "serve.wal")
	log, err := wal.Create(path, wal.Header{
		Object: "atomic-fi", ObjName: "C", Procs: clients, Ops: ops, Seed: 5,
	}, wal.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, server.Config{
		Object:  live.NewAtomicFetchInc("C", 0),
		Clients: clients,
		Monitor: check.IncrementalConfig{Stride: 64, MaxT: 0},
		Sink:    log,
	})
	res := load(t, loadgen.Config{
		Addr: addr, Clients: clients, Ops: ops,
		Gen: live.FetchIncGen(), Seed: 5,
	})
	requireExactlyOnce(t, res)
	sum, err := s.Shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	rec, err := wal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn {
		t.Fatalf("cleanly closed log torn at %d", rec.TornAt)
	}
	if rec.Frames != sum.Events {
		t.Fatalf("recovered %d frames, server merged %d events", rec.Frames, sum.Events)
	}
	if last := rec.Tickets[len(rec.Tickets)-1]; last != sum.Commits {
		t.Fatalf("recovered last commit %d, server at %d", last, sum.Commits)
	}
	for i := 0; i < rec.History.Len(); i++ {
		e, got := rec.History.Event(i), sum.History.Event(i)
		if e.Kind != got.Kind || e.Proc != got.Proc || e.Resp != got.Resp {
			t.Fatalf("event %d diverges: wal %+v vs history %+v", i, e, got)
		}
	}
}

// newReader wraps a test connection for frame reads.
func newReader(c net.Conn) *bufio.Reader { return bufio.NewReader(c) }

// An out-of-sequence op index is a protocol error, answered and closed.
func TestServeRejectsOutOfSequence(t *testing.T) {
	s, addr := startServer(t, server.Config{
		Object:      live.NewAtomicFetchInc("C", 0),
		Clients:     1,
		MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
	})
	defer s.Shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := server.WriteFrame(conn, server.AppendHello(nil, server.Hello{Client: 0, Done: 0})); err != nil {
		t.Fatal(err)
	}
	br := newReader(conn)
	if _, err := server.ReadFrame(br); err != nil { // hello-ack
		t.Fatal(err)
	}
	req := server.Request{OpIndex: 5}
	req.Op.Method = "fetchinc"
	if err := server.WriteFrame(conn, server.AppendRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	payload, err := server.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if _, isErr := server.DecodeError(payload); !isErr {
		t.Fatalf("out-of-sequence op answered with %x, want error frame", payload[0])
	}
}

// A client claiming more progress than the server has applied is a lost
// commit — refused at the handshake.
func TestServeRejectsLostCommitClaim(t *testing.T) {
	s, addr := startServer(t, server.Config{
		Object:      live.NewAtomicFetchInc("C", 0),
		Clients:     1,
		MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
	})
	defer s.Shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := server.WriteFrame(conn, server.AppendHello(nil, server.Hello{Client: 0, Done: 3})); err != nil {
		t.Fatal(err)
	}
	payload, err := server.ReadFrame(newReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if _, isErr := server.DecodeError(payload); !isErr {
		t.Fatal("over-claiming hello accepted")
	}
}

// The merged history of a server run replays byte-identically (the same
// contract live.Run keeps).
func TestServeHistoryReplays(t *testing.T) {
	const clients, ops = 3, 80
	s, addr := startServer(t, server.Config{
		Object:  live.NewAtomicFetchInc("C", 0),
		Clients: clients,
		Monitor: check.IncrementalConfig{Stride: 64, MaxT: 0},
	})
	res := load(t, loadgen.Config{
		Addr: addr, Clients: clients, Ops: ops,
		Gen: live.FetchIncGen(), Seed: 2,
	})
	requireExactlyOnce(t, res)
	sum, err := s.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	identical, err := live.Verify(live.NewAtomicFetchInc("C", 0), sum.History)
	if err != nil {
		t.Fatal(err)
	}
	if !identical {
		t.Fatal("server-merged history did not replay identically")
	}
	// And it is a valid history object-wise.
	if sum.History.Len() != 2*clients*ops {
		t.Fatalf("history length %d, want %d", sum.History.Len(), 2*clients*ops)
	}
	var _ *history.History = sum.History
}

// TestShutdownMergesLastEvent: the merge loop must not exit on an empty
// drain whose shard snapshot predates Shutdown finishing the shards — the
// events that snapshot held back behind an idle shard's watermark are only
// released by a drain that sees the shards done. Before the fix about one
// cycle in eighty lost the final event (and its WAL frame).
func TestShutdownMergesLastEvent(t *testing.T) {
	const cycles, clients, ops = 200, 2, 20
	for i := 0; i < cycles; i++ {
		s, addr := startServer(t, server.Config{
			Object:  live.NewAtomicFetchInc("C", 0),
			Clients: clients,
			Monitor: check.IncrementalConfig{Stride: 16},
		})
		load(t, loadgen.Config{Addr: addr, Clients: clients, Ops: ops, Gen: live.FetchIncGen(), Seed: int64(i)})
		sum, err := s.Shutdown()
		if err != nil {
			t.Fatalf("cycle %d: shutdown: %v", i, err)
		}
		if sum.Events != 2*clients*ops {
			t.Fatalf("cycle %d: %d events merged, want %d", i, sum.Events, 2*clients*ops)
		}
	}
}

var errSinkBoom = errors.New("disk on fire")

// countSink is a CommitSink that counts events and Close calls and fails
// at the failAt-th event (1-based; 0 never fails), counting the events
// before it. The merge goroutine is its only caller until Shutdown returns,
// so the test reads it unlocked after.
type countSink struct {
	frames, closes, failAt int
}

func (s *countSink) AppendEvents(_ *history.History, from, to int, _ []uint64) error {
	if s.failAt > 0 && s.frames < s.failAt && s.failAt <= s.frames+to-from {
		s.frames = s.failAt - 1
		return errSinkBoom
	}
	s.frames += to - from
	return nil
}

func (s *countSink) Close() error {
	s.closes++
	return nil
}

// The server hands its sink to the commit pipeline: a New that fails closes
// it (the WAL file BuildServer just created must not stay open), and every
// way through Serve/Shutdown closes it exactly once. A monitor violation is
// recorded, not fatal: the server keeps serving and logging.
func TestServerClosesSinkOnce(t *testing.T) {
	const clients, ops = 2, 60
	fi := func() live.Object { return live.NewAtomicFetchInc("C", 0) }
	none := check.MonitorSpec{Kind: check.MonitorNone}
	cases := []struct {
		name      string
		cfg       server.Config
		failAt    int
		newErr    bool
		violation bool
	}{
		{name: "no object", cfg: server.Config{Clients: clients}, newErr: true},
		{name: "no clients", cfg: server.Config{Object: fi()}, newErr: true},
		{name: "bad monitor spec", cfg: server.Config{Object: fi(), Clients: clients,
			MonitorSpec: check.MonitorSpec{Kind: check.MonitorSample, N: 1}}, newErr: true},
		{name: "clean", cfg: server.Config{Object: fi(), Clients: clients}},
		{name: "record-only", cfg: server.Config{Object: fi(), Clients: clients, MonitorSpec: none}},
		{name: "violation", cfg: server.Config{Object: live.NewJunkFetchInc("C", 20), Clients: clients,
			Monitor: check.IncrementalConfig{Stride: 16}}, violation: true},
		{name: "sink error", cfg: server.Config{Object: fi(), Clients: clients}, failAt: 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sink := &countSink{failAt: c.failAt}
			c.cfg.Sink = sink
			s, err := server.New(c.cfg)
			if (err != nil) != c.newErr {
				t.Fatalf("New error = %v, want error %v", err, c.newErr)
			}
			if err == nil {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				s.Serve(ln)
				requireExactlyOnce(t, load(t, loadgen.Config{
					Addr: ln.Addr().String(), Clients: clients, Ops: ops, Gen: live.FetchIncGen(), Seed: 1,
				}))
				sum, err := s.Shutdown()
				if c.failAt > 0 {
					if !errors.Is(err, errSinkBoom) {
						t.Fatalf("Shutdown error = %v, want the sink's", err)
					}
				} else if err != nil {
					t.Fatal(err)
				} else if sink.frames != 2*clients*ops {
					t.Fatalf("sink holds %d frames, want all %d (a violation must not stop the log)", sink.frames, 2*clients*ops)
				}
				if (sum.Violation != nil) != c.violation {
					t.Fatalf("violation = %v, want one: %v", sum.Violation, c.violation)
				}
				if c.cfg.MonitorSpec == none && !reflect.DeepEqual(sum.Verdict, check.Verdict{}) {
					t.Fatalf("record-only server carries a verdict: %+v", sum.Verdict)
				}
			}
			if sink.closes != 1 {
				t.Fatalf("sink closed %d times, want exactly once", sink.closes)
			}
		})
	}
}

// Shutdown leaves no goroutine behind, cleanly and after a sink error ended
// the merge loop early: the accept goroutine, every connection's handler
// and reader, and the merge loop have all returned.
func TestServerShutdownLeavesNoGoroutine(t *testing.T) {
	for _, failAt := range []int{0, 9} {
		baseline := runtime.NumGoroutine()
		s, addr := startServer(t, server.Config{Object: live.NewAtomicFetchInc("C", 0), Clients: 2, Sink: &countSink{failAt: failAt}})
		load(t, loadgen.Config{Addr: addr, Clients: 2, Ops: 60, Gen: live.FetchIncGen(), Seed: 1})
		if _, err := s.Shutdown(); (err != nil) != (failAt > 0) {
			t.Fatalf("failAt=%d: Shutdown error = %v", failAt, err)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("failAt=%d: %d goroutines after Shutdown, baseline %d", failAt, runtime.NumGoroutine(), baseline)
			}
		}
	}
}
