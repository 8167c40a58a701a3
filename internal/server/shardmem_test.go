package server

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/spec"
)

// chunkBytes is one chunk of a session's shard (internal/live).
const chunkBytes = 64 << 10

// liveHeap is the heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// A server sized for thousands of client ids pays only for the ones that
// speak: a session's shard allocates its first chunk on its first record.
func TestNewIdleSessionsCostNoChunk(t *testing.T) {
	const clients = 4096
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := New(Config{Object: live.NewAtomicFetchInc("C", 0), Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln)
	if _, err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > clients*1024 {
		t.Fatalf("a server of %d silent client ids allocated %d bytes from New to Shutdown, want at most 1 KiB an id", clients, got)
	}
}

// mergedCount is a commit sink that counts the events the merge loop has
// established, so a test can wait for the merge to catch up.
type mergedCount struct{ n atomic.Int64 }

func (c *mergedCount) AppendEvents(_ *history.History, from, to int, _ []uint64) error {
	c.n.Add(int64(to - from))
	return nil
}
func (c *mergedCount) Close() error { return nil }

// opClient is a protocol client that keeps a window of requests in flight.
type opClient struct {
	conn net.Conn
	br   *bufio.Reader
	done uint64
}

func dialClient(addr string, id uint64) (*opClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &opClient{conn: conn, br: bufio.NewReader(conn)}
	if err := WriteFrame(conn, AppendHello(nil, Hello{Client: id})); err != nil {
		return nil, err
	}
	if _, err := ReadFrame(c.br); err != nil {
		return nil, err
	}
	return c, nil
}

// run completes n more operations, window at a time.
func (c *opClient) run(n int) error {
	const window = 32 // below queueDepth: the server never stops reading
	op := spec.MakeOp(spec.MethodFetchInc)
	var out []byte
	for n > 0 {
		w := min(window, n)
		out = out[:0]
		for i := 0; i < w; i++ {
			out = AppendFrame(out, AppendRequest(nil, Request{OpIndex: c.done + uint64(i), Op: op}))
		}
		if _, err := c.conn.Write(out); err != nil {
			return err
		}
		for i := 0; i < w; i++ {
			payload, err := ReadFrame(c.br)
			if err != nil {
				return err
			}
			resp, err := DecodeResponse(payload)
			if err != nil {
				return err
			}
			if resp.OpIndex != c.done {
				return fmt.Errorf("response for op %d, want %d", resp.OpIndex, c.done)
			}
			c.done++
		}
		n -= w
	}
	return nil
}

// Two sessions record 200k operations between them. With the history's
// memory reserved up front, what the server holds after 10k operations a
// session and after 100k differs by at most a chunk a session — the shards
// are the only thing that used to grow with operations (64 B a record,
// doubling) — and at either point it is a few chunks, not megabytes.
func TestSessionShardMemoryDoesNotGrowWithOps(t *testing.T) {
	const sessions, early, total = 2, 10_000, 100_000
	sink := &mergedCount{}
	s, err := New(Config{
		Object:      live.NewAtomicFetchInc("C", 0),
		Clients:     sessions,
		MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
		Sink:        sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.h.Reserve(2 * sessions * total)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln)
	clients := make([]*opClient, sessions)
	for i := range clients {
		if clients[i], err = dialClient(ln.Addr().String(), uint64(i)); err != nil {
			t.Fatal(err)
		}
		defer clients[i].conn.Close() // error paths; closing twice is harmless
	}
	base := liveHeap()

	// phase runs every client n operations further, waits for the merge
	// loop to have merged them and returns the live heap.
	phase := func(n int) int64 {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, sessions)
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = c.run(n)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
		want := int64(2 * sessions * int(clients[0].done))
		for deadline := time.Now().Add(time.Minute); sink.n.Load() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("merge loop merged %d of %d events in a minute", sink.n.Load(), want)
			}
		}
		return liveHeap()
	}
	atEarly := phase(early) - base
	atTotal := phase(total-early) - base

	// Each session holds the chunk it is filling and at most one spare;
	// half a megabyte on top covers what the connections brought.
	if limit := int64(sessions*2*chunkBytes + 512<<10); atEarly > limit || atTotal > limit {
		t.Fatalf("live heap above the idle server: %d bytes after %d ops a session, %d after %d, want at most %d",
			atEarly, early, atTotal, total, limit)
	}
	if grew := atTotal - atEarly; grew > sessions*chunkBytes+chunkBytes/2 {
		t.Fatalf("live heap grew %d bytes between %d and %d ops a session, want at most a chunk a session", grew, early, total)
	}
	for _, c := range clients {
		c.conn.Close() // Shutdown waits for the connections to die
	}
	sum, err := s.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != 2*sessions*total {
		t.Fatalf("events = %d, want %d", sum.Events, 2*sessions*total)
	}
}
