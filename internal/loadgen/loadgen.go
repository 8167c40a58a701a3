// Package loadgen is the client side of the networked runtime: an
// open-loop fleet of connection-per-client workers driving an
// internal/server instance through the framed wire protocol, with the
// retry discipline the network fault plane demands — jittered exponential
// backoff on every failure, and idempotent resume across reconnects (the
// hello-ack reconciliation plus the server's last-operation cache make
// every operation exactly-once even when the connection dies between the
// apply and the response).
//
// The backoff schedule is a pure function of (seed, client, attempt), so a
// faulted run's reconnect timing is reproducible from its seed — the same
// determinism contract the rest of the fault plane keeps.
package loadgen

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/server"
	"github.com/elin-go/elin/internal/spec"
)

// Config describes a load run against one server.
type Config struct {
	// Addr is the server's TCP address.
	Addr string
	// Clients and Ops: Clients workers, Ops operations each. Client ids
	// are 0..Clients-1 and must be within the server's id space.
	Clients int
	Ops     int
	// Gen produces each client's operation stream (deterministic per
	// (client, index) given the seeded RNG).
	Gen live.OpGen
	// Seed pins the operation streams and the backoff jitter.
	Seed int64
	// Rate, when positive, paces each client open-loop at Rate ops/sec
	// (scheduled starts; a late response does not shift later starts).
	Rate float64
	// LatencySample records every Nth operation's latency. Zero, the
	// default, picks live.LatencyStride's power of two: at least 1 024
	// samples per client, every operation below 2 048 ops.
	LatencySample int
	// MaxAttempts bounds connection attempts per pending operation
	// (default 200); exceeding it fails the client.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the reconnect schedule (defaults
	// 200µs and 50ms).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// IOTimeout bounds each response wait (default 10s) — a server that
	// severed the connection without a FIN still cannot wedge a client.
	IOTimeout time.Duration
}

func (c *Config) latencySample() int {
	return live.LatencyStride(c.Ops, c.LatencySample)
}

func (c *Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 200
	}
	return c.MaxAttempts
}

func (c *Config) backoffBase() time.Duration {
	if c.BackoffBase <= 0 {
		return 200 * time.Microsecond
	}
	return c.BackoffBase
}

func (c *Config) backoffCap() time.Duration {
	if c.BackoffCap <= 0 {
		return 50 * time.Millisecond
	}
	return c.BackoffCap
}

func (c *Config) ioTimeout() time.Duration {
	if c.IOTimeout <= 0 {
		return 10 * time.Second
	}
	return c.IOTimeout
}

// Backoff is the deterministic reconnect schedule: attempt k (0-based)
// sleeps base·2^k capped at cap, plus a jitter in [0, base) that is a pure
// splitmix64 function of (seed, client, attempt). Exported so the
// determinism is testable: same seed, same client, same attempt — same
// delay, always.
func Backoff(seed int64, client, attempt int, base, cap time.Duration) time.Duration {
	d := base << uint(attempt)
	if d > cap || d <= 0 { // <= 0: shift overflow
		d = cap
	}
	x := uint64(seed) ^ uint64(client+1)*0x9E3779B97F4A7C15 ^ uint64(attempt+1)*0xD1B54A32D192ED03
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return d + time.Duration(x%uint64(base))
}

// opResult is one completed operation as the client saw it.
type opResult struct {
	resp   int64
	ticket uint64
}

// Result is what a load run produced.
type Result struct {
	// Clients and Ops echo the config.
	Clients, Ops int
	// Completed counts operations with an accepted response (== Clients*Ops
	// on success).
	Completed int
	// Lost counts operations that never received a response; Duplicated
	// counts commit tickets handed to more than one operation. Both must
	// be zero for the exactly-once contract to hold.
	Lost       int
	Duplicated int
	// Retries counts resent operations, Reconnects successful re-handshakes
	// (beyond each client's first), Refused hello attempts rejected by the
	// server (partition knocks).
	Retries    int
	Reconnects int
	Refused    int
	// Elapsed is the wall-clock run time; the percentiles summarize the
	// sampled per-op latencies (ns).
	Elapsed                    time.Duration
	P50NS, P95NS, P99NS, MaxNS int64
}

// Throughput returns completed ops/sec.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// client is one worker's connection state.
type client struct {
	cfg  *Config
	id   int
	done uint64 // operations known committed
	last opResult

	conn net.Conn
	br   *bufio.Reader

	results    []opResult
	lats       []int64
	retries    int
	reconnects int
	refused    int
	attempts   int // connection attempts since the last progress
}

// Run drives the fleet and verifies the exactly-once contract. The
// returned Result is non-nil even when err is non-nil if at least the
// fleet ran (verification failures are reported in the Result, not err).
func Run(cfg Config) (*Result, error) {
	if cfg.Clients <= 0 || cfg.Ops <= 0 {
		return nil, fmt.Errorf("loadgen: need clients > 0 and ops > 0")
	}
	if cfg.Gen == nil {
		return nil, fmt.Errorf("loadgen: no operation generator")
	}
	clients := make([]*client, cfg.Clients)
	errs := make([]error, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		clients[c] = &client{cfg: &cfg, id: c}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = clients[c].run(start)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{Clients: cfg.Clients, Ops: cfg.Ops, Elapsed: elapsed}
	var lats [][]int64
	seen := make(map[uint64]int)
	for _, cl := range clients {
		res.Completed += len(cl.results)
		res.Retries += cl.retries
		res.Reconnects += cl.reconnects
		res.Refused += cl.refused
		lats = append(lats, cl.lats)
		for _, r := range cl.results {
			seen[r.ticket]++
		}
	}
	res.Lost = cfg.Clients*cfg.Ops - res.Completed
	for _, n := range seen {
		if n > 1 {
			res.Duplicated += n - 1
		}
	}
	p50, p95, p99, max := live.Percentiles(lats...)
	res.P50NS, res.P95NS, res.P99NS, res.MaxNS = int64(p50), int64(p95), int64(p99), int64(max)
	for c, err := range errs {
		if err != nil {
			return res, fmt.Errorf("loadgen: client %d: %w", c, err)
		}
	}
	return res, nil
}

// run is one client's life: connect, then per op send-await with
// reconnect-and-resume on every failure.
func (c *client) run(start time.Time) error {
	defer c.close()
	rng := rand.New(rand.NewSource(c.cfg.Seed ^ int64(c.id+1)*0x5DEECE66D))
	var interval time.Duration
	if c.cfg.Rate > 0 {
		interval = time.Duration(float64(time.Second) / c.cfg.Rate)
	}
	if err := c.connect(); err != nil {
		return err
	}
	stride := c.cfg.latencySample()
	for i := 0; i < c.cfg.Ops; i++ {
		op := c.cfg.Gen(c.id, i, rng)
		// Times are monotonic offsets from start, as in live.Run.
		sample := i%stride == 0
		var t0 time.Duration
		if interval > 0 {
			t0 = time.Duration(i) * interval
			if d := t0 - time.Since(start); d > 0 {
				time.Sleep(d)
			}
		} else if sample {
			t0 = time.Since(start)
		}
		c.attempts = 0
		first := true
		for uint64(i) == c.done {
			if !first {
				c.retries++
			}
			first = false
			if err := c.exchange(uint64(i), op); err != nil {
				if err := c.reconnect(); err != nil {
					return fmt.Errorf("op %d: %w", i, err)
				}
			}
		}
		if sample {
			c.lats = append(c.lats, int64(time.Since(start)-t0))
		}
	}
	return nil
}

// exchange sends one request and awaits its response; on success it
// records the result and advances done.
func (c *client) exchange(opIndex uint64, op spec.Op) error {
	req := server.AppendRequest(nil, server.Request{OpIndex: opIndex, Op: op})
	if err := server.WriteFrame(c.conn, req); err != nil {
		return err
	}
	c.conn.SetReadDeadline(time.Now().Add(c.cfg.ioTimeout()))
	payload, err := server.ReadFrame(c.br)
	if err != nil {
		return err
	}
	if text, isErr := server.DecodeError(payload); isErr {
		return fmt.Errorf("server error: %s", text)
	}
	resp, err := server.DecodeResponse(payload)
	if err != nil {
		return err
	}
	if resp.OpIndex != opIndex {
		return fmt.Errorf("response for op %d while awaiting %d", resp.OpIndex, opIndex)
	}
	c.accept(opResult{resp: resp.Resp, ticket: resp.Ticket})
	return nil
}

// accept records op done's result.
func (c *client) accept(r opResult) {
	c.results = append(c.results, r)
	c.last = r
	c.done++
	c.attempts = 0
}

// connect dials and handshakes, reconciling the session state: the
// server's applied count tells the client whether its in-flight operation
// (index done) committed before the previous connection died.
func (c *client) connect() error {
	for {
		if c.attempts >= c.cfg.maxAttempts() {
			return fmt.Errorf("gave up after %d connection attempts", c.attempts)
		}
		if c.attempts > 0 || c.reconnects > 0 || c.refused > 0 {
			time.Sleep(Backoff(c.cfg.Seed, c.id, c.attempts, c.cfg.backoffBase(), c.cfg.backoffCap()))
		}
		c.attempts++
		conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.ioTimeout())
		if err != nil {
			continue
		}
		br := bufio.NewReader(conn)
		if err := server.WriteFrame(conn, server.AppendHello(nil, server.Hello{Client: uint64(c.id), Done: c.done})); err != nil {
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Now().Add(c.cfg.ioTimeout()))
		payload, err := server.ReadFrame(br)
		if err != nil {
			conn.Close()
			continue
		}
		if text, isErr := server.DecodeError(payload); isErr {
			conn.Close()
			c.refused++
			if strings.Contains(text, "partitioned") {
				continue // knock again after backoff; enough knocks heal
			}
			return fmt.Errorf("hello rejected: %s", text)
		}
		ack, err := server.DecodeHelloAck(payload)
		if err != nil {
			conn.Close()
			continue
		}
		switch {
		case ack.Applied == c.done:
			// Server and client agree; the in-flight operation (if any)
			// was never applied and will be resent.
		case ack.Applied == c.done+1:
			// The in-flight operation committed before the connection
			// died: take the cached response, never resend.
			c.accept(opResult{resp: ack.LastResp, ticket: ack.LastTicket})
		default:
			conn.Close()
			return fmt.Errorf("resume violation: server applied %d, client done %d", ack.Applied, c.done)
		}
		c.conn, c.br = conn, br
		return nil
	}
}

// reconnect tears down the dead connection and re-handshakes.
func (c *client) reconnect() error {
	c.close()
	if err := c.connect(); err != nil {
		return err
	}
	c.reconnects++
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
}
