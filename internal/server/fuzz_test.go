package server

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/spec"
)

// checkFrames is FuzzReadFrame's property on data as a connection's byte
// stream: ReadFrame never panics; every payload it accepts, framed again, is
// exactly the bytes it consumed; the first thing it rejects ends the stream
// (there are no resynchronization points); and the whole read allocates in
// proportion to the stream plus at most one maxFrame payload, however large
// a length prefix claims its frame to be.
func checkFrames(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := bufio.NewReader(bytes.NewReader(data))
	off := 0
	for {
		payload, err := ReadFrame(r)
		if err != nil {
			if err == io.EOF && off != len(data) {
				t.Fatalf("clean EOF at byte %d of %d", off, len(data))
			}
			break
		}
		frame := AppendFrame(nil, payload)
		if end := off + len(frame); end > len(data) || !bytes.Equal(frame, data[off:end]) {
			t.Fatalf("frame accepted at byte %d re-frames to %x, stream holds %x", off, frame, data[off:min(end, len(data))])
		}
		off += len(frame)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+maxFrame+64<<10); got > limit {
		t.Fatalf("reading a %d-byte stream allocated %d bytes (limit %d)", len(data), got, limit)
	}
}

// reencodes holds one decoder to FuzzDecodeMessage's property on b: what it
// accepts re-encodes to a payload that decodes to the same message and
// re-encodes to itself.
func reencodes[T comparable](t *testing.T, b []byte, decode func([]byte) (T, error), encode func([]byte, T) []byte) {
	t.Helper()
	v, err := decode(b)
	if err != nil {
		return
	}
	enc := encode(nil, v)
	v2, err := decode(enc)
	if err != nil || v2 != v || !bytes.Equal(encode(nil, v2), enc) {
		t.Fatalf("payload %x decodes to %+v, whose encoding %x decodes to %+v (err %v)", b, v, enc, v2, err)
	}
}

// checkMessage is FuzzDecodeMessage's property on b as one frame payload,
// handed to the decoder its tag byte names: decoding never panics, and
// Append∘Decode is the identity on everything the encoders emit. (Not on b
// itself: the decoders take padded varints the encoders never produce — an
// error payload, which has none, must come back byte for byte.)
func checkMessage(t *testing.T, b []byte) {
	t.Helper()
	if len(b) == 0 {
		return
	}
	switch b[0] {
	case MsgHello:
		reencodes(t, b, DecodeHello, AppendHello)
	case MsgHelloAck:
		reencodes(t, b, DecodeHelloAck, AppendHelloAck)
	case MsgRequest:
		reencodes(t, b, DecodeRequest, AppendRequest)
	case MsgResponse:
		reencodes(t, b, DecodeResponse, AppendResponse)
	case MsgError:
		if text, ok := DecodeError(b); !ok || !bytes.Equal(AppendError(nil, text), b) {
			t.Fatalf("error payload %x decodes to %q, %v", b, text, ok)
		}
	default:
		// No decoder owns the tag: every one of them must refuse it.
		_, e1 := DecodeHello(b)
		_, e2 := DecodeHelloAck(b)
		_, e3 := DecodeRequest(b)
		_, e4 := DecodeResponse(b)
		if _, ok := DecodeError(b); ok || e1 == nil || e2 == nil || e3 == nil || e4 == nil {
			t.Fatalf("payload %x with unknown tag decoded", b)
		}
	}
}

// FuzzReadFrame: arbitrary bytes as a connection's stream. The seed corpus
// is testdata/fuzz/FuzzReadFrame.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(checkFrames)
}

// FuzzDecodeMessage: arbitrary bytes as a frame payload. The seed corpus is
// testdata/fuzz/FuzzDecodeMessage.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(checkMessage)
}

// The fuzz bodies in tier-1: random payloads under every tag (a hello keeps
// its magic, or plain random bytes would never get past it), and a clean
// two-frame stream with random bytes spliced over a random span.
func TestQuickFuzzBodies(t *testing.T) {
	message := func(b []byte, tag uint8) bool {
		b = append([]byte{MsgHello + tag%6}, b...) // the five tags and one nobody owns
		if b[0] == MsgHello && len(b) > len(Magic) {
			copy(b[1:], Magic[:])
		}
		checkMessage(t, b)
		return !t.Failed()
	}
	if err := quick.Check(message, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	clean := AppendFrame(nil, AppendRequest(nil, Request{OpIndex: 3, Op: spec.MakeOp1(spec.MethodWrite, -9)}))
	clean = AppendFrame(clean, AppendResponse(nil, Response{OpIndex: 3, Resp: -9, Ticket: 77}))
	stream := func(splice []byte, at, drop uint16) bool {
		lo := int(at) % (len(clean) + 1)
		hi := min(lo+int(drop)%16, len(clean))
		checkFrames(t, bytes.Join([][]byte{clean[:lo], splice, clean[hi:]}, nil))
		return !t.Failed()
	}
	if err := quick.Check(stream, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
