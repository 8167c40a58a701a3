// Package server is the networked face of the live runtime: a long-lived
// framed-TCP server exposing one registry live.Object to remote clients,
// with per-client shards feeding the same watermark merge, commit sink and
// online monitor the in-process runtime uses — plus the seeded network
// fault plane (faults.NetSpec) injected at the connection read/write seam.
//
// # Wire protocol
//
// Frames are exactly the WAL's: [len uint32 LE][crc uint32 LE][payload],
// with the payload's first byte the message type. A connection opens with
// the client's hello (magic, client id, resume count) answered by the
// server's hello-ack (the session's applied count plus the cached last
// response), after which the client sends request frames and the server
// answers each with a response frame carrying the commit ticket. Sessions
// are keyed by client id and survive reconnects: operations are strictly
// sequential per client (op index 0,1,2,...), the server caches the last
// applied operation's response, and a request one below the applied count
// replays that cache instead of re-applying — together with the hello-ack
// reconciliation this makes every reconnect exactly-once: an operation the
// server committed is never re-applied, an operation it never saw is
// resent, and nothing else is possible.
//
// A request carries its operation in spec's byte encoding (spec.AppendOp),
// the same bytes a commit-log event carries; the frame codec stays this
// package's own, since a stream reader and a file reader treat damage
// differently. TestProtoGoldenBytes pins every message's bytes.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/elin-go/elin/internal/spec"
)

// Magic opens every client hello (8 bytes, version in the last byte).
var Magic = [8]byte{'E', 'L', 'I', 'N', 'S', 'R', 'V', '1'}

// maxFrame bounds a frame payload, like the WAL's: longer lengths are
// treated as a broken peer.
const maxFrame = 1 << 20

// Message type tags (first payload byte).
const (
	MsgHello    = 0x01 // client -> server: magic, client id, resume count
	MsgHelloAck = 0x02 // server -> client: applied count, cached last response
	MsgRequest  = 0x03 // client -> server: op index, operation
	MsgResponse = 0x04 // server -> client: op index, response, commit ticket
	MsgError    = 0x05 // server -> client: text, connection closes after
)

// Hello is the client's handshake: which session to (re)attach and how
// many operations the client believes have committed.
type Hello struct {
	Client uint64
	Done   uint64
}

// HelloAck is the server's handshake answer: the session's applied count
// and the cached response of the last applied operation (meaningful only
// when Applied > 0). A reconnecting client compares Applied against its
// own progress: equal means resend the in-flight operation, one ahead
// means the in-flight operation committed and the cache carries its
// response.
type HelloAck struct {
	Applied    uint64
	LastResp   int64
	LastTicket uint64
}

// Request is one operation submission. OpIndex is the client's strictly
// sequential operation counter; the server applies index == applied and
// replays its cache for index == applied-1 (a retry of the last
// operation).
type Request struct {
	OpIndex uint64
	Op      spec.Op
}

// Response answers one Request with the response value and the commit
// ticket the operation drew.
type Response struct {
	OpIndex uint64
	Resp    int64
	Ticket  uint64
}

// AppendFrame appends the CRC framing of payload to b.
func AppendFrame(b, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	b = append(b, hdr[:]...)
	return append(b, payload...)
}

// WriteFrame frames payload and writes it in one Write call.
func WriteFrame(w io.Writer, payload []byte) error {
	frame := AppendFrame(make([]byte, 0, 8+len(payload)), payload)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("server: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame and returns its payload. A bad length or CRC
// is an error — the stream carries no resynchronization points, so the
// connection is useless afterwards.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through: a clean close between frames
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrame {
		return nil, fmt.Errorf("server: frame length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("server: short frame: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("server: frame CRC mismatch")
	}
	return payload, nil
}

// AppendHello encodes a hello payload.
func AppendHello(b []byte, h Hello) []byte {
	b = append(b, MsgHello)
	b = append(b, Magic[:]...)
	b = binary.AppendUvarint(b, h.Client)
	return binary.AppendUvarint(b, h.Done)
}

// DecodeHello decodes a hello payload (including the type byte).
func DecodeHello(b []byte) (Hello, error) {
	if len(b) < 1+len(Magic) || b[0] != MsgHello {
		return Hello{}, fmt.Errorf("server: not a hello frame")
	}
	b = b[1:]
	if string(b[:len(Magic)]) != string(Magic[:]) {
		return Hello{}, fmt.Errorf("server: bad hello magic")
	}
	b = b[len(Magic):]
	var h Hello
	var n int
	if h.Client, n = binary.Uvarint(b); n <= 0 {
		return Hello{}, fmt.Errorf("server: bad hello client id")
	}
	b = b[n:]
	if h.Done, n = binary.Uvarint(b); n <= 0 || len(b) != n {
		return Hello{}, fmt.Errorf("server: bad hello done count")
	}
	return h, nil
}

// AppendHelloAck encodes a hello-ack payload.
func AppendHelloAck(b []byte, a HelloAck) []byte {
	b = append(b, MsgHelloAck)
	b = binary.AppendUvarint(b, a.Applied)
	b = binary.AppendVarint(b, a.LastResp)
	return binary.AppendUvarint(b, a.LastTicket)
}

// DecodeHelloAck decodes a hello-ack payload.
func DecodeHelloAck(b []byte) (HelloAck, error) {
	if len(b) < 1 || b[0] != MsgHelloAck {
		return HelloAck{}, fmt.Errorf("server: not a hello-ack frame")
	}
	b = b[1:]
	var a HelloAck
	var n int
	if a.Applied, n = binary.Uvarint(b); n <= 0 {
		return HelloAck{}, fmt.Errorf("server: bad hello-ack applied count")
	}
	b = b[n:]
	if a.LastResp, n = binary.Varint(b); n <= 0 {
		return HelloAck{}, fmt.Errorf("server: bad hello-ack response")
	}
	b = b[n:]
	if a.LastTicket, n = binary.Uvarint(b); n <= 0 || len(b) != n {
		return HelloAck{}, fmt.Errorf("server: bad hello-ack ticket")
	}
	return a, nil
}

// AppendRequest encodes a request payload: the op index, then the
// operation's byte encoding (spec.AppendOp).
func AppendRequest(b []byte, r Request) []byte {
	b = append(b, MsgRequest)
	b = binary.AppendUvarint(b, r.OpIndex)
	return spec.AppendOp(b, r.Op)
}

// DecodeRequest decodes a request payload.
func DecodeRequest(b []byte) (Request, error) {
	bad := func(what string) (Request, error) {
		return Request{}, fmt.Errorf("server: bad request frame: %s", what)
	}
	if len(b) < 1 || b[0] != MsgRequest {
		return bad("type")
	}
	b = b[1:]
	var r Request
	var n int
	if r.OpIndex, n = binary.Uvarint(b); n <= 0 {
		return bad("op index")
	}
	b = b[n:]
	var err error
	if r.Op, n, err = spec.DecodeOp(b); err != nil {
		return bad(err.Error())
	}
	if len(b) != n {
		return bad("trailing bytes")
	}
	return r, nil
}

// AppendResponse encodes a response payload.
func AppendResponse(b []byte, r Response) []byte {
	b = append(b, MsgResponse)
	b = binary.AppendUvarint(b, r.OpIndex)
	b = binary.AppendVarint(b, r.Resp)
	return binary.AppendUvarint(b, r.Ticket)
}

// DecodeResponse decodes a response payload.
func DecodeResponse(b []byte) (Response, error) {
	if len(b) < 1 || b[0] != MsgResponse {
		return Response{}, fmt.Errorf("server: not a response frame")
	}
	b = b[1:]
	var r Response
	var n int
	if r.OpIndex, n = binary.Uvarint(b); n <= 0 {
		return Response{}, fmt.Errorf("server: bad response op index")
	}
	b = b[n:]
	if r.Resp, n = binary.Varint(b); n <= 0 {
		return Response{}, fmt.Errorf("server: bad response value")
	}
	b = b[n:]
	if r.Ticket, n = binary.Uvarint(b); n <= 0 || len(b) != n {
		return Response{}, fmt.Errorf("server: bad response ticket")
	}
	return r, nil
}

// AppendError encodes an error payload.
func AppendError(b []byte, text string) []byte {
	return append(append(b, MsgError), text...)
}

// DecodeError decodes an error payload's text (empty ok for other types).
func DecodeError(b []byte) (string, bool) {
	if len(b) < 1 || b[0] != MsgError {
		return "", false
	}
	return string(b[1:]), true
}
