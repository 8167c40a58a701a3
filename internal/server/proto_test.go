package server

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/spec"
)

func TestProtoRoundTrips(t *testing.T) {
	h := Hello{Client: 7, Done: 123456}
	if got, err := DecodeHello(AppendHello(nil, h)); err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	a := HelloAck{Applied: 42, LastResp: -7, LastTicket: 999}
	if got, err := DecodeHelloAck(AppendHelloAck(nil, a)); err != nil || got != a {
		t.Fatalf("hello-ack round trip: %+v, %v", got, err)
	}
	r := Request{OpIndex: 5, Op: spec.MakeOp1(spec.MethodWrite, -3)}
	if got, err := DecodeRequest(AppendRequest(nil, r)); err != nil || got != r {
		t.Fatalf("request round trip: %+v, %v", got, err)
	}
	resp := Response{OpIndex: 5, Resp: -3, Ticket: 88}
	if got, err := DecodeResponse(AppendResponse(nil, resp)); err != nil || got != resp {
		t.Fatalf("response round trip: %+v, %v", got, err)
	}
	if text, ok := DecodeError(AppendError(nil, "boom")); !ok || text != "boom" {
		t.Fatalf("error round trip: %q, %v", text, ok)
	}
}

func TestProtoRoundTripQuick(t *testing.T) {
	f := func(opIndex uint64, resp int64, ticket uint64, arg int64, nargs uint8) bool {
		op := spec.MakeOp(spec.MethodFetchInc)
		if nargs%2 == 1 {
			op = spec.MakeOp1(spec.MethodWrite, arg)
		}
		r := Request{OpIndex: opIndex, Op: op}
		got, err := DecodeRequest(AppendRequest(nil, r))
		if err != nil || got != r {
			return false
		}
		rs := Response{OpIndex: opIndex, Resp: resp, Ticket: ticket}
		gotR, err := DecodeResponse(AppendResponse(nil, rs))
		return err == nil && gotR == rs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTripAndCorruption(t *testing.T) {
	payload := AppendRequest(nil, Request{OpIndex: 3, Op: spec.MakeOp(spec.MethodFetchInc)})
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	got, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("frame payload diverged")
	}
	// Any flipped payload byte must fail the CRC.
	for i := 8; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(bad))); err == nil {
			t.Fatalf("flipped byte %d went unnoticed", i)
		}
	}
}

// TestProtoGoldenBytes pins the wire bytes of every message kind, both
// ways: each value encodes to its hex literal and the literal decodes back.
func TestProtoGoldenBytes(t *testing.T) {
	hello := Hello{Client: 7, Done: 300}
	ack := HelloAck{Applied: 42, LastResp: -7, LastTicket: 999}
	resp := Response{OpIndex: 5, Resp: -3, Ticket: 88}
	reqs := []Request{
		{OpIndex: 0, Op: spec.MakeOp(spec.MethodFetchInc)},
		{OpIndex: 1, Op: spec.MakeOp1(spec.MethodWrite, -3)},
		{OpIndex: 200, Op: spec.MakeOp2(spec.MethodCAS, 1, 2)},
	}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
		back func([]byte) (any, error)
		val  any
	}{
		{"hello", AppendHello(nil, hello), "01454c494e5352563107ac02",
			func(b []byte) (any, error) { return DecodeHello(b) }, hello},
		{"hello-ack", AppendHelloAck(nil, ack), "022a0de707",
			func(b []byte) (any, error) { return DecodeHelloAck(b) }, ack},
		{"response", AppendResponse(nil, resp), "04050558",
			func(b []byte) (any, error) { return DecodeResponse(b) }, resp},
		{"request/0 args", AppendRequest(nil, reqs[0]), "0300086665746368696e6300",
			func(b []byte) (any, error) { return DecodeRequest(b) }, reqs[0]},
		{"request/1 arg", AppendRequest(nil, reqs[1]), "03010577726974650105",
			func(b []byte) (any, error) { return DecodeRequest(b) }, reqs[1]},
		{"request/2 args", AppendRequest(nil, reqs[2]), "03c80103636173020204",
			func(b []byte) (any, error) { return DecodeRequest(b) }, reqs[2]},
		{"error", AppendError(nil, "boom"), "05626f6f6d",
			func(b []byte) (any, error) {
				text, ok := DecodeError(b)
				if !ok {
					return nil, fmt.Errorf("not an error frame")
				}
				return text, nil
			}, "boom"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s: encoded %s, want %s", tc.name, got, tc.want)
		}
		b, _ := hex.DecodeString(tc.want)
		if got, err := tc.back(b); err != nil || got != tc.val {
			t.Errorf("%s: decoded %+v, %v, want %+v", tc.name, got, err, tc.val)
		}
	}
}

// TestDecodeRequestKnownMethodAllocs: a request for a method package spec
// names decodes without allocating (the method is the spec constant).
func TestDecodeRequestKnownMethodAllocs(t *testing.T) {
	b := AppendRequest(nil, Request{OpIndex: 9, Op: spec.MakeOp1(spec.MethodWrite, 4)})
	if n := testing.AllocsPerRun(100, func() { _, _ = DecodeRequest(b) }); n != 0 {
		t.Errorf("DecodeRequest: %v allocs, want 0", n)
	}
}
