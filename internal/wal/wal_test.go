package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

func testHeader() Header {
	return Header{
		Object: "atomic-fi", ObjName: "C", Procs: 2, Ops: 4,
		Workload: "uniform:inc", Policy: "immediate", Seed: 42, Tolerance: 1,
	}
}

func testEvents() ([]history.Event, []uint64) {
	evs := []history.Event{
		{Kind: history.KindInvoke, Proc: 0, Obj: "C", Op: spec.MakeOp("inc")},
		{Kind: history.KindInvoke, Proc: 1, Obj: "C", Op: spec.MakeOp1("add", 7)},
		{Kind: history.KindRespond, Proc: 0, Obj: "C", Resp: 1},
		{Kind: history.KindRespond, Proc: 1, Obj: "C", Resp: -8},
		{Kind: history.KindInvoke, Proc: 0, Obj: "C", Op: spec.MakeOp2("cas", 1, 2)},
		{Kind: history.KindRespond, Proc: 0, Obj: "C", Resp: 0},
	}
	pos := []uint64{0, 0, 1, 2, 2, 3}
	return evs, pos
}

func writeLog(t *testing.T, pol SyncPolicy) (string, []history.Event, []uint64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.wal")
	l, err := Create(path, testHeader(), pol)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	evs, pos := testEvents()
	for i, e := range evs {
		if err := l.Append(e, pos[i]); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path, evs, pos
}

// materialised is what Recover returned before it decoded into a history:
// every event and position decoded into slices.
type materialised struct {
	Header Header
	Events []history.Event
	Pos    []uint64
	Frames int
	Torn   bool
	TornAt int64
}

// recoverEvents is that reader, kept as the oracle Recover is held to. It
// mirrors Recover's refusals the slow way: a header past maxProcs, an event
// whose process the header does not name, and an event sequence
// history.FromEvents would refuse.
func recoverEvents(path string) (*materialised, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("wal: recover %s: not a write-ahead log (bad magic)", path)
	}
	off := int64(len(magic))
	payload, next, ok := readFrame(data, off)
	if !ok || len(payload) < 1 || payload[0] != frameHeader {
		return nil, fmt.Errorf("wal: recover %s: header frame unreadable", path)
	}
	rec := &materialised{}
	if err := json.Unmarshal(payload[1:], &rec.Header); err != nil {
		return nil, fmt.Errorf("wal: recover %s: header: %w", path, err)
	}
	if p := rec.Header.Procs; p < 0 || p > maxProcs {
		return nil, fmt.Errorf("wal: recover %s: header procs %d outside 0..%d", path, p, maxProcs)
	}
	off = next
	for off < int64(len(data)) {
		payload, next, ok = readFrame(data, off)
		if !ok {
			rec.Torn, rec.TornAt = true, off
			break
		}
		var e history.Event
		pos, err := decodePayload(payload, &e)
		if err != nil {
			rec.Torn, rec.TornAt = true, off
			break
		}
		e.Obj = rec.Header.ObjName
		rec.Events = append(rec.Events, e)
		rec.Pos = append(rec.Pos, pos)
		rec.Frames++
		off = next
	}
	// The first refusal wins: an ill-formed prefix before the first event
	// of a process the header does not name, else that event.
	far := slices.IndexFunc(rec.Events, func(e history.Event) bool { return e.Proc >= rec.Header.Procs })
	if far < 0 {
		far = len(rec.Events)
	}
	if _, err := history.FromEvents(rec.Events[:far]); err != nil {
		return nil, fmt.Errorf("wal: recover %s: %w", path, err)
	}
	if far < len(rec.Events) {
		return nil, fmt.Errorf("wal: recover %s: event %d: process p%d outside the header's 0..%d",
			path, far, rec.Events[far].Proc, rec.Header.Procs-1)
	}
	return rec, nil
}

// keptPositions decodes the merge position of every frame rec keeps for
// AppendRecovered: the invocation stamps live only there.
func keptPositions(t *testing.T, rec *Recovered) []uint64 {
	t.Helper()
	var pos []uint64
	var e history.Event
	for b := rec.frames; len(b) > 0; {
		next := frameOverhead + int(binary.LittleEndian.Uint32(b))
		p, err := decodePayload(b[frameOverhead:next], &e)
		if err != nil {
			t.Fatalf("kept frame %d does not decode: %v", len(pos), err)
		}
		pos, b = append(pos, p), b[next:]
	}
	return pos
}

// responsePositions returns the positions of evs' responses.
func responsePositions(evs []history.Event, pos []uint64) []uint64 {
	var out []uint64
	for i, e := range evs {
		if e.Kind == history.KindRespond {
			out = append(out, pos[i])
		}
	}
	return out
}

// recoverChecked writes data to path and recovers it with Recover and with
// the oracle, failing unless the two agree on the error, the header, every
// event, Tickets (the oracle's response positions), every kept position,
// Frames, Torn and TornAt. It returns the recovery and its events; rec is
// nil when the log is not recoverable.
func recoverChecked(t *testing.T, path string, data []byte) (*Recovered, []history.Event) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want, wantErr := recoverEvents(path)
	rec, err := Recover(path)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Recover error = %v, oracle's = %v", err, wantErr)
	}
	if err != nil {
		return nil, nil
	}
	if rec.Header != want.Header || rec.Frames != want.Frames || rec.Torn != want.Torn || rec.TornAt != want.TornAt {
		t.Fatalf("Recover = header %+v frames %d torn %v@%d, oracle = header %+v frames %d torn %v@%d",
			rec.Header, rec.Frames, rec.Torn, rec.TornAt, want.Header, want.Frames, want.Torn, want.TornAt)
	}
	if rec.TornAt > int64(len(data)) {
		t.Fatalf("TornAt = %d in a file of %d bytes", rec.TornAt, len(data))
	}
	evs := rec.History.Events()
	if !slices.Equal(evs, want.Events) {
		t.Fatalf("History holds\n %+v\noracle\n %+v", evs, want.Events)
	}
	if got, wantT := rec.Tickets, responsePositions(want.Events, want.Pos); !slices.Equal(got, wantT) {
		t.Fatalf("Tickets = %v, oracle's response positions %v", got, wantT)
	}
	if got := keptPositions(t, rec); !slices.Equal(got, want.Pos) {
		t.Fatalf("kept frames carry positions %v, oracle %v", got, want.Pos)
	}
	return rec, evs
}

func TestRoundTrip(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNever, SyncAlways, SyncPolicy(2)} {
		path, evs, pos := writeLog(t, pol)
		rec, err := Recover(path)
		if err != nil {
			t.Fatalf("pol %v: Recover: %v", pol, err)
		}
		if rec.Torn {
			t.Fatalf("pol %v: clean log reported torn at %d", pol, rec.TornAt)
		}
		if rec.Header != testHeader() {
			t.Fatalf("pol %v: header = %+v", pol, rec.Header)
		}
		if got := rec.History.Events(); !reflect.DeepEqual(got, evs) {
			t.Fatalf("pol %v: events mismatch:\n got %+v\nwant %+v", pol, got, evs)
		}
		if want := responsePositions(evs, pos); !slices.Equal(rec.Tickets, want) {
			t.Fatalf("pol %v: Tickets = %v, want %v", pol, rec.Tickets, want)
		}
		if rec.Frames != len(evs) {
			t.Fatalf("pol %v: Frames = %d, want %d", pol, rec.Frames, len(evs))
		}
	}
}

func TestTornTail(t *testing.T) {
	path, evs, _ := writeLog(t, SyncNever)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cutting the file at every byte length must recover a prefix of the
	// events, never an error (magic+header occupy the first frames; cuts
	// inside those are the only error cases). A cut exactly on a frame
	// boundary is indistinguishable from a clean shorter log, so Torn is
	// only required for mid-frame cuts.
	hdrEnd := headerEnd(t, data)
	boundary := map[int]bool{len(data): true}
	for off := hdrEnd; off < int64(len(data)); {
		_, next, ok := readFrame(data, off)
		if !ok {
			t.Fatal("pristine log has a bad frame")
		}
		boundary[int(off)] = true
		off = next
	}
	for cut := len(data) - 1; cut >= 0; cut-- {
		rec, got := recoverChecked(t, path, data[:cut])
		if int64(cut) < hdrEnd {
			if rec != nil {
				t.Fatalf("cut %d (inside magic/header): want error", cut)
			}
			continue
		}
		if rec == nil {
			t.Fatalf("cut %d: not recovered", cut)
		}
		if !boundary[cut] && !rec.Torn {
			t.Fatalf("cut %d: mid-frame tail not reported torn", cut)
		}
		if boundary[cut] && rec.Torn {
			t.Fatalf("cut %d: frame-boundary cut reported torn", cut)
		}
		if len(got) > len(evs) || !slices.Equal(got, evs[:len(got)]) {
			t.Fatalf("cut %d: recovered %+v, not a prefix of %+v", cut, got, evs)
		}
	}
}

// headerEnd returns the offset just past the header frame.
func headerEnd(t *testing.T, data []byte) int64 {
	t.Helper()
	_, next, ok := readFrame(data, int64(len(magic)))
	if !ok {
		t.Fatal("header frame unreadable in pristine log")
	}
	return next
}

func TestCorruptMiddle(t *testing.T) {
	path, evs, _ := writeLog(t, SyncNever)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdrEnd := headerEnd(t, data)
	// A bit flipped in every byte in turn (all eight positions get their
	// share): the view agrees with the oracle everywhere, and a flip in the
	// event region is always caught — recovery stops at or before the damaged
	// frame with only intact prefix events.
	for off := range data {
		bad := bytes.Clone(data)
		bad[off] ^= 1 << (off % 8)
		rec, got := recoverChecked(t, path, bad)
		if int64(off) < hdrEnd {
			continue
		}
		if rec == nil || !rec.Torn {
			t.Fatalf("off %d: flip in the event region not reported torn", off)
		}
		if len(got) >= len(evs) || !slices.Equal(got, evs[:len(got)]) {
			t.Fatalf("off %d: recovered %+v, not a proper prefix of %+v", off, got, evs)
		}
	}
}

func TestBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.wal")
	if err := os.WriteFile(path, []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(path); err == nil {
		t.Fatal("Recover accepted junk file")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"always", SyncAlways, false},
		{"never", SyncNever, false},
		{"", SyncNever, false},
		{"interval:1", SyncPolicy(1), false},
		{"interval:4096", SyncPolicy(4096), false},
		{"interval:0", 0, true},
		{"interval:x", 0, true},
		{"sometimes", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v err=%v", c.in, got, err, c.want, c.err)
		}
	}
	if SyncAlways.String() != "always" || SyncNever.String() != "never" ||
		SyncPolicy(8).String() != "interval:8" {
		t.Error("SyncPolicy.String round-trip broken")
	}
}

// quickEvent is the testing/quick generator domain for one event: arbitrary
// kind choice, proc, pos, method bytes, args, and response.
type quickEvent struct {
	Respond bool
	Proc    uint16
	Pos     uint64
	Method  string
	NArgs   uint8
	Args    [2]int64
	Resp    int64
}

func (q quickEvent) event() (history.Event, uint64) {
	e := history.Event{Proc: int(q.Proc), Obj: "C"}
	if q.Respond {
		e.Kind = history.KindRespond
		e.Resp = q.Resp
	} else {
		e.Kind = history.KindInvoke
		e.Op.Method = q.Method
		e.Op.NArgs = int(q.NArgs % 3)
		for i := 0; i < e.Op.NArgs; i++ {
			e.Op.Args[i] = q.Args[i]
		}
	}
	return e, q.Pos
}

// TestQuickFrameRoundTrip is the satellite property test: encode/decode of
// event payloads round-trips for arbitrary events, and flipping a bit at a
// random offset of the encoding never round-trips silently to a different
// event — it either fails to decode or (for the rare compensating flips
// inside ignored padding, which this encoding doesn't have) decodes equal.
func TestQuickFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(q quickEvent, corruptAt uint16) bool {
		e, pos := q.event()
		b := appendPayload(nil, &e, pos)
		var got history.Event
		gotPos, err := decodePayload(b, &got)
		if err != nil {
			t.Logf("decode clean: %v", err)
			return false
		}
		got.Obj = e.Obj // obj name travels in the header, not the payload
		if !reflect.DeepEqual(got, e) || gotPos != pos {
			t.Logf("round-trip mismatch: %+v/%d vs %+v/%d", got, gotPos, e, pos)
			return false
		}
		// Corrupt one bit at a random offset; decode must not panic, and if
		// it succeeds the result must differ from the original (the frame
		// CRC is what catches these in the full log path — here we assert
		// the payload decoder itself is safe on damaged input).
		bad := append([]byte(nil), b...)
		off := int(corruptAt) % len(bad)
		bad[off] ^= 1 << uint(rng.Intn(8))
		var ce history.Event
		cpos, cerr := decodePayload(bad, &ce)
		if cerr == nil {
			ce.Obj = e.Obj
			if reflect.DeepEqual(ce, e) && cpos == pos {
				t.Logf("bit flip at %d decoded identically", off)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenBytes pins the file format: testdata/golden.wal is writeLog's
// log as written by the Append that made two Writes per frame. The drain
// writer lays down the same bytes whatever the drains and the policy.
func TestGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.wal"))
	if err != nil {
		t.Fatal(err)
	}
	evs, _ := testEvents()
	for _, pol := range []SyncPolicy{SyncNever, SyncAlways, SyncPolicy(2)} {
		path, _, _ := writeLog(t, pol) // drain 0: one Append per event
		for _, drain := range []int{0, 1, 3, len(evs)} {
			if drain > 0 {
				path = writeDrains(t, pol, drain, nil)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("pol %v, drains of %d: log bytes differ from testdata/golden.wal:\n got %x\nwant %x", pol, drain, got, want)
			}
		}
	}
}

// writeDrains writes testEvents through AppendEvents in drains of drain
// events, calling after(l, k) once the first k events are logged, and
// returns the closed log's path.
func writeDrains(t *testing.T, pol SyncPolicy, drain int, after func(l *Log, k int)) string {
	t.Helper()
	evs, pos := testEvents()
	h, err := history.FromEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.wal")
	l, err := Create(path, testHeader(), pol)
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < len(evs); from += drain {
		to := min(from+drain, len(evs))
		if err := l.AppendEvents(h, from, to, pos[from:to]); err != nil {
			t.Fatalf("AppendEvents [%d,%d): %v", from, to, err)
		}
		if after != nil {
			after(l, to)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// Every event counts toward the sync policy wherever a drain ends: after
// each drain of every size, and after each one-event Append, the sync
// counter and the bytes on file (a log this small reaches the file only at
// a sync) are those of an fsync after every event (always), after every
// N-th (interval:N) or never.
func TestDrainSyncPoints(t *testing.T) {
	evs, pos := testEvents()
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// end[k] is the size of the log of the first k events.
	end := []int64{headerEnd(t, golden)}
	for i, e := range evs {
		end = append(end, end[i]+int64(frameOverhead+len(appendPayload(nil, &e, pos[i]))))
	}
	check := func(pol SyncPolicy, how string, l *Log, k int) {
		t.Helper()
		synced := 0 // events an fsync has covered
		switch {
		case pol == SyncAlways:
			synced = k
		case pol > 0:
			synced = k - k%int(pol)
		}
		st, err := os.Stat(l.f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if l.pending != k-synced || st.Size() != end[synced] {
			t.Errorf("pol %v, %s: after %d events %d pending and %d bytes on file, want %d and %d",
				pol, how, k, l.pending, st.Size(), k-synced, end[synced])
		}
	}
	for _, pol := range []SyncPolicy{SyncNever, SyncAlways, SyncPolicy(1), SyncPolicy(2), SyncPolicy(3), SyncPolicy(4)} {
		l, err := Create(filepath.Join(t.TempDir(), "one.wal"), testHeader(), pol)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range evs {
			if err := l.Append(e, pos[i]); err != nil {
				t.Fatal(err)
			}
			check(pol, "Append", l, i+1)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for drain := 1; drain <= len(evs); drain++ {
			writeDrains(t, pol, drain, func(l *Log, k int) { check(pol, fmt.Sprintf("drains of %d", drain), l, k) })
		}
	}
}

// Recovery decodes every frame into one Event: an invocation with fewer
// arguments than the one before it must not keep the earlier arguments.
func TestRecoverResetsArgs(t *testing.T) {
	h := history.New()
	for _, op := range []spec.Op{spec.MakeOp2(spec.MethodCAS, 1, 2), spec.MakeOp1(spec.MethodWrite, 5), spec.MakeOp(spec.MethodRead)} {
		if err := h.Call(0, "C", op, 0); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "args.wal")
	l, err := Create(path, testHeader(), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEvents(h, 0, h.Len(), make([]uint64, h.Len())); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	// The fingerprint skips arguments past NArgs; Op compares them all.
	if got, want := rec.History.AppendFingerprint(nil), h.AppendFingerprint(nil); !bytes.Equal(got, want) {
		t.Errorf("recovered fingerprint %x, written %x", got, want)
	}
	for i := range h.Len() {
		if got, want := rec.History.Op(i), h.Op(i); got != want {
			t.Errorf("event %d: recovered %#v, written %#v", i, got, want)
		}
	}
}

// A failed write is the log's last: once it loses frames, every later
// append, Flush, Sync and Close fails, even when the file takes writes
// again, and nothing lands past the lost frames.
func TestWriteFailureSticks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fail.wal")
	l, err := Create(path, testHeader(), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	evs, pos := testEvents()
	if err := l.Append(evs[0], pos[0]); err != nil {
		t.Fatal(err)
	}
	file := l.f
	if l.f, err = os.Open(path); err != nil { // read-only: the write fails
		t.Fatal(err)
	}
	if err := l.Flush(); err == nil {
		t.Fatal("Flush to a read-only file succeeded")
	}
	l.f.Close()
	l.f = file
	if err := l.Append(evs[1], pos[1]); err == nil {
		t.Error("Append after a failed write succeeded")
	}
	for i, call := range []func() error{l.Flush, l.Sync, l.Close} {
		if err := call(); err == nil || !strings.Contains(err.Error(), "wal: write") {
			t.Errorf("call %d (Flush, Sync, Close) after a failed write = %v, want the write error", i, err)
		}
	}
	rec, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Frames != 0 || rec.Torn {
		t.Errorf("recovered %d frames (torn %v), want the header alone", rec.Frames, rec.Torn)
	}
}

// checksum is the IEEE CRC-32 at every length across the kernel's steps.
func TestChecksumMatchesIEEE(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random, ones := make([]byte, 256), bytes.Repeat([]byte{0xff}, 256)
	rng.Read(random)
	for n := 0; n <= 256; n++ {
		for _, b := range [][]byte{random[:n], ones[:n]} {
			if got, want := checksum(b), crc32.ChecksumIEEE(b); got != want {
				t.Errorf("checksum of %x = %08x, want %08x", b, got, want)
			}
		}
	}
}

// frame is one frame around payload, as sealFrame lays it out.
func frame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// craftLog lays out a log by hand, past the checks Create makes: magic, a
// header frame for h, then one frame per event.
func craftLog(t *testing.T, h Header, evs []history.Event, pos []uint64) []byte {
	t.Helper()
	hdr, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	b := append(bytes.Clone(magic[:]), frame(append([]byte{frameHeader}, hdr...))...)
	for i, e := range evs {
		b = append(b, frame(appendPayload(nil, &e, pos[i]))...)
	}
	return b
}

// A preallocated extent can come back zero-filled after a crash. A zero
// frame has length 0 and the CRC of no bytes, 0, so it passes the CRC
// check; being no event is what tears the tail at its first byte, with
// every event before it intact. A 64 KiB zero tail must not be sized as
// 8 192 events either: that would break checkLog's allocation bound.
func TestZeroFilledTail(t *testing.T) {
	path, evs, pos := writeLog(t, SyncNever)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, got := recoverChecked(t, path, append(bytes.Clone(clean), make([]byte, 64)...))
	if rec == nil || !rec.Torn || rec.TornAt != int64(len(clean)) {
		t.Fatalf("zero-filled tail: recovered %+v, want torn at byte %d", rec, len(clean))
	}
	if !slices.Equal(got, evs) || !slices.Equal(rec.Tickets, responsePositions(evs, pos)) {
		t.Fatalf("zero-filled tail: recovered %+v tickets %v, want %+v", got, rec.Tickets, evs)
	}
	checkLog(t, path, append(bytes.Clone(clean), make([]byte, 64<<10)...))
}

// A header claiming more processes than a history's dense table holds is
// refused on both sides of the log. (The refusals of an intact event frame
// are TestReplayRefusals' rows in package live.)
func TestHeaderProcsCap(t *testing.T) {
	h := testHeader()
	h.Procs = maxProcs + 1
	path := filepath.Join(t.TempDir(), "wide.wal")
	if _, err := Create(path, h, SyncNever); err == nil || !strings.Contains(err.Error(), "header procs 1025 outside 0..1024") {
		t.Errorf("Create of a 1025-proc header: %v", err)
	}
	evs, pos := testEvents()
	if rec, _ := recoverChecked(t, path, craftLog(t, h, evs, pos)); rec != nil {
		t.Errorf("recovered %d frames under a 1025-proc header", rec.Frames)
	}
}

// A log of invocations by 20 000 distinct processes past the dense table
// would keep each in a History's map, past checkLog's allocation bound; the
// header cap and the process range refuse it before then.
func TestFarProcessLogWithinBound(t *testing.T) {
	const n = 20_000
	evs, pos := make([]history.Event, n), make([]uint64, n)
	for i := range evs {
		evs[i] = history.Event{Kind: history.KindInvoke, Proc: maxProcs + i, Op: spec.MakeOp(spec.MethodFetchInc)}
	}
	dir := t.TempDir()
	for _, procs := range []int{1 << 20, maxProcs} {
		h := testHeader()
		h.Procs = procs
		checkLog(t, filepath.Join(dir, "far.wal"), craftLog(t, h, evs, pos))
	}
}

// AppendRecovered copies the recovered prefix byte for byte, torn tail
// excluded, and a log continued after it is itself recoverable.
func TestAppendRecovered(t *testing.T) {
	path, evs, pos := writeLog(t, SyncNever)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, clean[:len(clean)-3], 0o644); err != nil { // tear the last frame
		t.Fatal(err)
	}
	rec, err := Recover(path)
	if err != nil || !rec.Torn || rec.Frames != len(evs)-1 {
		t.Fatalf("torn log: %+v, %v", rec, err)
	}
	// The five copied frames count toward the sync policy: interval:2 and
	// always sync after them, interval:8 and never leave five pending.
	for pol, pending := range map[SyncPolicy]int{SyncNever: 5, SyncAlways: 0, SyncPolicy(2): 0, SyncPolicy(8): 5} {
		out := filepath.Join(t.TempDir(), "out.wal")
		l, err := Create(out, testHeader(), pol)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendRecovered(rec); err != nil {
			t.Fatal(err)
		}
		if l.pending != pending {
			t.Errorf("pol %v: %d appends pending after the copy, want %d", pol, l.pending, pending)
		}
		if err := l.Append(evs[len(evs)-1], pos[len(pos)-1]); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, clean) {
			t.Errorf("pol %v: recovered prefix plus the torn event\n got %x\nwant %x", pol, got, clean)
		}
	}
}
