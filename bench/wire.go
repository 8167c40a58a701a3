package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/server"
	"github.com/elin-go/elin/internal/spec"
)

// wireStages are the client-side stages of one round trip, in order.
var wireStages = []string{stageEncode, stageWrite, stageWait, stageRead, stageDecode}

// wireClient is the benchmark's own closed-loop client, written on the
// server package's public frame functions: one connection, one operation in
// flight, no retry. It exists so that each stage of a round trip can be timed
// from outside loadgen.
type wireClient struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dialWire(addr string, id int) (*wireClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &wireClient{conn: conn, br: bufio.NewReader(conn)}
	if err := server.WriteFrame(conn, server.AppendHello(nil, server.Hello{Client: uint64(id)})); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := server.ReadFrame(c.br)
	if err == nil {
		_, err = server.DecodeHelloAck(payload)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	return c, nil
}

// exchange is one round trip. When st is not nil it adds the time of each
// stage to st: wait is until the first byte of the response can be read,
// read is the rest of the frame.
func (c *wireClient) exchange(i uint64, op spec.Op, st *[5]int64) (server.Response, error) {
	var t [6]time.Time
	stamp := func(k int) {
		if st != nil {
			t[k] = time.Now()
		}
	}
	stamp(0)
	c.buf = server.AppendRequest(c.buf[:0], server.Request{OpIndex: i, Op: op})
	stamp(1)
	if err := server.WriteFrame(c.conn, c.buf); err != nil {
		return server.Response{}, err
	}
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	stamp(2)
	if _, err := c.br.Peek(1); err != nil {
		return server.Response{}, err
	}
	stamp(3)
	payload, err := server.ReadFrame(c.br)
	if err != nil {
		return server.Response{}, err
	}
	stamp(4)
	if text, isErr := server.DecodeError(payload); isErr {
		return server.Response{}, fmt.Errorf("server error: %s", text)
	}
	resp, err := server.DecodeResponse(payload)
	stamp(5)
	if st != nil {
		for k := range st {
			st[k] += int64(t[k+1].Sub(t[k]))
		}
	}
	return resp, err
}

// wireStats is what a wireDriver measured on its connection.
type wireStats struct {
	rttUS    []float64 // one per operation, when asked for
	clientNS int64     // encode + write + read + decode, summed (tracer on)
}

// wireDriver runs operations on one connection as one client, recording a
// batch span with its five stage spans for every wireBatchOps operations.
type wireDriver struct {
	tr      *tracer
	c       *wireClient
	id      int
	rng     *rand.Rand
	gen     live.OpGen
	done    int
	keepRTT bool
	run     int
	wireStats
}

func newWireDriver(tr *tracer, addr string, id int, seed int64, keepRTT bool) (*wireDriver, error) {
	c, err := dialWire(addr, id)
	if err != nil {
		return nil, err
	}
	return &wireDriver{
		tr: tr, c: c, id: id, keepRTT: keepRTT, gen: live.FetchIncGen(),
		rng: rand.New(rand.NewSource(seed ^ int64(id+1)*0x5DEECE66D)),
		run: tr.begin(spanRun, -1),
	}, nil
}

// drive runs the next ops operations.
func (d *wireDriver) drive(ops int) error {
	tr := d.tr
	for end := d.done + ops; d.done < end; {
		n := min(wireBatchOps, end-d.done)
		b := tr.begin(spanBatch, d.run)
		var st [5]int64
		stp := &st
		if !tr.on {
			stp = nil
		}
		for i := 0; i < n; i++ {
			var t0 time.Time
			if d.keepRTT {
				t0 = time.Now()
			}
			if _, err := d.c.exchange(uint64(d.done), d.gen(d.id, d.done, d.rng), stp); err != nil {
				return fmt.Errorf("client %d op %d: %w", d.id, d.done, err)
			}
			if d.keepRTT {
				d.rttUS = append(d.rttUS, float64(time.Since(t0))/1e3)
			}
			d.done++
		}
		if tr.on {
			tr.chain(b, tr.spans[b].Start, wireStages, st[:], n)
			d.clientNS += st[0] + st[1] + st[3] + st[4]
		}
		tr.end(b, n)
	}
	return nil
}

// close ends the run span and hangs up.
func (d *wireDriver) close() {
	d.tr.end(d.run, d.done)
	d.c.conn.Close()
}

// echoListener is the floor under the server: it answers a hello with a
// hello-ack and every other frame with one fixed response frame, without
// decoding, queueing or applying anything. What a round trip costs against
// it is the kernel, the loopback and the frame functions themselves.
type echoListener struct {
	ln net.Listener
	wg sync.WaitGroup
}

func newEchoListener() (*echoListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoListener{ln: ln}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				echo(c)
			}()
		}
	}()
	return e, nil
}

func echo(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	ack := server.AppendHelloAck(nil, server.HelloAck{})
	resp := server.AppendResponse(nil, server.Response{OpIndex: 5000, Resp: 5000, Ticket: 5001})
	for {
		payload, err := server.ReadFrame(br)
		if err != nil || len(payload) == 0 {
			return // the client hung up
		}
		reply := resp
		if payload[0] == server.MsgHello {
			reply = ack
		}
		if server.WriteFrame(c, reply) != nil {
			return
		}
	}
}

// stop closes the listener and returns once every connection has ended,
// which they do when their clients hang up.
func (e *echoListener) stop() {
	e.ln.Close()
	e.wg.Wait()
}
