// Package wal is the durable write-ahead commit log of the live runtime:
// an append-only file of CRC-framed records carrying the run's merged
// event stream (the commit log a live.CommitSink receives), plus the
// recovery reader that decodes a log back into a history — truncating any
// torn tail at the first bad frame, which is what makes a crash at an
// arbitrary point recoverable to the longest valid prefix.
//
// # File format
//
// A log is the 8-byte magic "ELINWAL1", one header frame, then one frame
// per event. Every frame is
//
//	len   uint32 LE   payload length
//	crc   uint32 LE   IEEE CRC-32 of the payload
//	payload
//
// The header payload is a JSON Header (byte 0x00 first, distinguishing it
// from event payloads); an event payload is the compact binary encoding of
// one history.Event plus its merge position (commit ticket for responses,
// sequencer stamp for invocations); an invocation's operation is spec's
// byte encoding (spec.AppendOp), the bytes a wire request carries too.
// testdata/golden.wal pins the format. Everything after the first frame whose
// length, CRC or payload is bad is a torn tail: Recover stops there, reports
// Torn, and returns the history before it — a frame is either wholly
// durable or it never happened. An intact frame the history refuses fails.
//
// # Durability knob
//
// Events are buffered; the fsync policy ("always", "interval:N",
// "never") trades commit durability against throughput: always fsyncs
// after every event (each commit durable before the next), interval:N
// after every N events (at most N-1 commits lost to an OS crash; a
// process crash alone loses nothing buffered once Flush runs), never
// leaves syncing to the OS.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// magic identifies a log file (8 bytes, version in the last byte).
var magic = [8]byte{'E', 'L', 'I', 'N', 'W', 'A', 'L', '1'}

// maxFrame bounds a frame payload; longer lengths are treated as
// corruption (an event payload is tens of bytes, a header well under 4k).
const maxFrame = 1 << 20

// maxProcs bounds Header.Procs: the width of a History's dense process table.
const maxProcs = 1024

// Sync policies. Positive SyncPolicy values fsync every N events.
const (
	SyncNever  SyncPolicy = 0  // buffered writes, OS decides when to sync
	SyncAlways SyncPolicy = -1 // fsync after every event
)

// SyncPolicy is the fsync cadence: SyncAlways, SyncNever, or a positive
// interval N (fsync every N events).
type SyncPolicy int

// ParseSyncPolicy reads "always", "never", "interval:N" or "" (never).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "never":
		return SyncNever, nil
	case "always":
		return SyncAlways, nil
	}
	if rest, ok := strings.CutPrefix(s, "interval:"); ok {
		n, err := strconv.Atoi(rest)
		if err == nil && n >= 1 {
			return SyncPolicy(n), nil
		}
	}
	return 0, fmt.Errorf("wal: sync policy %q (want always, never, or interval:N with N >= 1)", s)
}

// String renders the policy in ParseSyncPolicy grammar.
func (p SyncPolicy) String() string {
	switch {
	case p == SyncAlways:
		return "always"
	case p <= SyncNever:
		return "never"
	default:
		return fmt.Sprintf("interval:%d", int(p))
	}
}

// Header is the log's first frame: everything a recovery needs to rebuild
// the run without the process that wrote it — the registry names of the
// object and workload, the client count, and the seed that pins the
// object's response choices.
type Header struct {
	// Object is the registry name of the object under test.
	Object string `json:"object"`
	// ObjName is the object's name in recorded histories ("C", "R").
	ObjName string `json:"obj_name"`
	// Procs is the number of clients the run was started with.
	Procs int `json:"procs"`
	// Ops is the per-client operation budget.
	Ops int `json:"ops"`
	// Workload/Policy are the registry names driving the run.
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	// Seed pins the run's response choices — a recovered object must be
	// rebuilt with this seed or replay diverges.
	Seed int64 `json:"seed"`
	// Tolerance echoes the monitor tolerance the run was checked under.
	Tolerance int `json:"tolerance,omitempty"`
}

// Log is an open write-ahead log. Its appends are single-writer (the live
// runtime's merge loop); Recover reads files, not open Logs.
type Log struct {
	f       *os.File
	pol     SyncPolicy
	pending int    // events since the last fsync
	buf     []byte // frames not yet written to f
	err     error  // the first write or fsync failure, which every later call returns
}

// writeChunk is the most bytes buf gathers before they are written to f.
const writeChunk = 1 << 16

// Create creates (truncating) a log file and writes magic plus header.
func Create(path string, h Header, pol SyncPolicy) (*Log, error) {
	if uint(h.Procs) > maxProcs {
		return nil, fmt.Errorf("wal: create: header procs %d outside 0..%d", h.Procs, maxProcs)
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("wal: encode header: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	l := &Log{f: f, pol: pol, buf: append(magic[:], make([]byte, frameOverhead)...)}
	l.buf = append(append(l.buf, frameHeader), hdr...)
	sealFrame(l.buf[len(magic):])
	if err := l.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// frameHeader is the header payload's first byte; an event payload's is its
// history.Kind (1 invoke, 2 respond).
const frameHeader = 0x00

// frameOverhead is what a frame spends before its payload: length and CRC.
const frameOverhead = 8

// sealFrame fills in the length and CRC of frame, whose payload runs to its
// end.
func sealFrame(frame []byte) {
	payload := frame[frameOverhead:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], checksum(payload))
}

// crcTab is crc32.IEEETable extended for slicing by 8: crcTab[k][b] is the
// table entry of byte b followed by k zero bytes.
var crcTab = func() (t [8][256]uint32) {
	t[0] = *crc32.IEEETable
	for k := 1; k < 8; k++ {
		for b, c := range t[k-1] {
			t[k][b] = t[0][c&0xff] ^ c>>8
		}
	}
	return t
}()

// checksum is crc32.ChecksumIEEE(p). The library takes a slice shorter than
// 16 bytes, as an event payload is, a byte at a time; this is its
// slicing-by-8 without that cutoff, then a 4-byte step and single bytes.
func checksum(p []byte) uint32 {
	crc := ^uint32(0)
	for ; len(p) >= 8; p = p[8:] {
		crc ^= binary.LittleEndian.Uint32(p)
		crc = crcTab[0][p[7]] ^ crcTab[1][p[6]] ^ crcTab[2][p[5]] ^ crcTab[3][p[4]] ^
			crcTab[4][crc>>24] ^ crcTab[5][crc>>16&0xff] ^ crcTab[6][crc>>8&0xff] ^ crcTab[7][crc&0xff]
	}
	if len(p) >= 4 {
		crc ^= binary.LittleEndian.Uint32(p)
		crc = crcTab[0][crc>>24] ^ crcTab[1][crc>>16&0xff] ^ crcTab[2][crc>>8&0xff] ^ crcTab[3][crc&0xff]
		p = p[4:]
	}
	for _, b := range p {
		crc = crcTab[0][byte(crc)^b] ^ crc>>8
	}
	return ^crc
}

// appendPayload appends the binary encoding of one event (without
// framing) to b and returns the extended slice. It only reads *e.
func appendPayload(b []byte, e *history.Event, pos uint64) []byte {
	b = append(b, byte(e.Kind))
	b = binary.AppendUvarint(b, uint64(e.Proc))
	b = binary.AppendUvarint(b, pos)
	if e.Kind == history.KindInvoke {
		return spec.AppendOp(b, e.Op)
	}
	return binary.AppendVarint(b, e.Resp)
}

// decodePayload decodes one event payload (the inverse of appendPayload)
// into e, all but e.Obj — the object name is not part of the payload, the
// caller substitutes the header's ObjName — and returns its merge
// position.
func decodePayload(b []byte, e *history.Event) (uint64, error) {
	bad := func(what string) (uint64, error) {
		return 0, fmt.Errorf("wal: bad event payload: %s", what)
	}
	if len(b) < 1 {
		return bad("empty")
	}
	kind := history.Kind(b[0])
	if kind != history.KindInvoke && kind != history.KindRespond {
		return bad(fmt.Sprintf("kind %d", b[0]))
	}
	b = b[1:]
	proc, n := binary.Uvarint(b)
	if n <= 0 || proc > 1<<31 {
		return bad("proc")
	}
	b = b[n:]
	pos, n := binary.Uvarint(b)
	if n <= 0 {
		return bad("pos")
	}
	b = b[n:]
	e.Kind, e.Proc, e.Op, e.Resp = kind, int(proc), spec.Op{}, 0
	if kind == history.KindInvoke {
		var err error
		if e.Op, n, err = spec.DecodeOp(b); err != nil {
			return bad(err.Error())
		}
	} else if e.Resp, n = binary.Varint(b); n <= 0 {
		return bad("resp")
	}
	if len(b) != n {
		return bad("trailing bytes")
	}
	return pos, nil
}

// AppendEvents logs the merged events [from, to) of h, one frame each
// encoded from h's records, at merge positions pos[i-from]. It implements
// the live runtime's CommitSink contract: a response frame is the
// durability point of its commit ticket under the configured fsync policy.
func (l *Log) AppendEvents(h *history.History, from, to int, pos []uint64) error {
	var e history.Event // filled field by field: appendPayload reads only the kind's fields
	for i := from; i < to; i++ {
		if e.Kind = h.Kind(i); e.Kind == history.KindInvoke {
			e.Op = h.Op(i)
		}
		e.Proc, e.Resp = h.Proc(i), h.Resp(i)
		if err := l.appendEvent(&e, pos[i-from]); err != nil {
			return err
		}
	}
	return nil
}

// Append logs one event: AppendEvents of a one-event drain.
func (l *Log) Append(e history.Event, pos uint64) error {
	return l.appendEvent(&e, pos)
}

// appendEvent builds e's frame at the end of l.buf and counts it toward the
// sync policy. The frames gathered go to the file in one write at each
// fsync point and at writeChunk bytes, so a log fsyncs after exactly the
// events it would if every event were written on its own.
func (l *Log) appendEvent(e *history.Event, pos uint64) error {
	start := len(l.buf)
	l.buf = appendPayload(append(l.buf, make([]byte, frameOverhead)...), e, pos)
	sealFrame(l.buf[start:])
	if err := l.appended(1); err != nil || len(l.buf) < writeChunk && l.err == nil {
		return err
	}
	return l.Flush()
}

// AppendRecovered writes rec's validated frames verbatim, in one write: a
// continuation's log starts with the log it continues, byte for byte. The
// frames count toward the sync policy as rec.Frames events.
func (l *Log) AppendRecovered(rec *Recovered) error {
	if err := l.Flush(); err != nil {
		return err
	}
	if _, err := l.f.Write(rec.frames); err != nil {
		l.err = fmt.Errorf("wal: write: %w", err)
		return l.err
	}
	return l.appended(rec.Frames)
}

// appended counts n appended events and syncs if the policy says so.
func (l *Log) appended(n int) error {
	l.pending += n
	if l.pol == SyncAlways || l.pol > 0 && l.pending >= int(l.pol) {
		return l.Sync()
	}
	return nil
}

// Flush writes the buffered frames to the OS (no fsync). A failure sticks:
// a frame written after a lost one would sit past a torn tail.
func (l *Log) Flush() error {
	if l.err == nil {
		if _, err := l.f.Write(l.buf); err != nil {
			l.err = fmt.Errorf("wal: write: %w", err)
		}
		l.buf = l.buf[:0]
	}
	return l.err
}

// Sync flushes and fsyncs.
func (l *Log) Sync() error {
	if err := l.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return l.err
	}
	l.pending = 0
	return nil
}

// Close flushes, syncs and closes the file. Safe to call after a crash
// cut — the log is closed at a frame boundary by construction.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Recovered is a log read back from disk: the header, the counts, the
// recovered history and each response's commit ticket. Its frames, each of
// which passed Recover's length, CRC, payload-decode and history checks,
// are kept for AppendRecovered; a Recovered outlives its file.
type Recovered struct {
	// Header is the run description the log was created with.
	Header Header
	// Frames counts the event frames recovered (excluding the header).
	Frames int
	// Torn reports a truncated tail: TornAt is the byte offset of the
	// first bad frame, and everything before it was recovered.
	Torn   bool
	TornAt int64
	// History is the recovered merged history under Header.ObjName; the
	// invocations in flight at the crash stay pending in it.
	History *history.History
	// Tickets holds the commit ticket of each response, in log order.
	Tickets []uint64

	frames []byte // the Frames validated frames, back to back
}

// Recover reads a log file back: magic and header must be intact, then
// event frames are decoded into a history until EOF or the first bad frame
// (see the package comment), where the tail is declared torn and everything
// before it kept. A clean shutdown yields Torn false. No crash writes a whole
// checksummed frame out of order, so an event the history refuses, or of a
// process outside [0, Header.Procs), is an error.
func Recover(path string) (*Recovered, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	hdr, start, err := parseHeader(path, data)
	if err != nil {
		return nil, err
	}
	// Frame first, so the history and tickets are sized exactly; the
	// decoding pass below then reads the lengths alone. A payload shorter
	// than the shortest event (kind, proc, pos, value: 4 bytes) ends both,
	// so a zero-filled tail, a run of empty frames, is sized as nothing.
	n, end := 0, start
	for {
		payload, next, ok := readFrame(data, end)
		if !ok || len(payload) < 4 {
			break
		}
		n, end = n+1, next
	}
	rec := &Recovered{Header: hdr, History: history.New(), Tickets: make([]uint64, 0, n/2)}
	rec.History.Reserve(n)
	var e history.Event
	off := start
	for off < end {
		next := off + frameOverhead + int64(binary.LittleEndian.Uint32(data[off:]))
		pos, err := decodePayload(data[off+frameOverhead:next], &e)
		if err != nil {
			break
		}
		if e.Proc >= hdr.Procs {
			return nil, fmt.Errorf("wal: recover %s: event %d: process p%d outside the header's 0..%d", path, rec.Frames, e.Proc, hdr.Procs-1)
		}
		if e.Kind == history.KindInvoke {
			err = rec.History.Invoke(e.Proc, hdr.ObjName, e.Op)
		} else {
			err = rec.History.Respond(e.Proc, e.Resp)
			rec.Tickets = append(rec.Tickets, pos)
		}
		if err != nil {
			return nil, fmt.Errorf("wal: recover %s: event %d: %w", path, rec.Frames, err)
		}
		rec.Frames++
		off = next
	}
	if off < int64(len(data)) { // the loop stopped at a bad frame
		rec.Torn, rec.TornAt = true, off
	}
	rec.frames = data[start:off:off]
	return rec, nil
}

// parseHeader checks the magic and decodes the header frame at the front of
// data, returning the offset of the first event frame.
func parseHeader(path string, data []byte) (Header, int64, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
		return Header{}, 0, fmt.Errorf("wal: recover %s: not a write-ahead log (bad magic)", path)
	}
	payload, next, ok := readFrame(data, int64(len(magic)))
	if !ok || len(payload) < 1 || payload[0] != frameHeader {
		return Header{}, 0, fmt.Errorf("wal: recover %s: header frame unreadable", path)
	}
	var h Header
	if err := json.Unmarshal(payload[1:], &h); err != nil {
		return Header{}, 0, fmt.Errorf("wal: recover %s: header: %w", path, err)
	}
	if uint(h.Procs) > maxProcs {
		return Header{}, 0, fmt.Errorf("wal: recover %s: header procs %d outside 0..%d", path, h.Procs, maxProcs)
	}
	return h, next, nil
}

// readFrame reads the frame at off, returning its payload and the next
// frame's offset. ok is false on any framing damage (short header, bad
// length, short payload, CRC mismatch).
func readFrame(data []byte, off int64) (payload []byte, next int64, ok bool) {
	if off+frameOverhead > int64(len(data)) {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[off : off+4])
	crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n > maxFrame || off+frameOverhead+int64(n) > int64(len(data)) {
		return nil, 0, false
	}
	payload = data[off+frameOverhead : off+frameOverhead+int64(n)]
	if checksum(payload) != crc {
		return nil, 0, false
	}
	return payload, off + frameOverhead + int64(n), true
}
