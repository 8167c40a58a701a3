package live

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/faults"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
	"github.com/elin-go/elin/internal/wal"
)

var _ CommitSink = (*wal.Log)(nil)

func mustFaults(t *testing.T, text string) *faults.Spec {
	t.Helper()
	sp, err := faults.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// crashRecoverContinue runs the full pipeline once: serial run with a WAL
// sink crashing at commit 60, recovery from the log, resume, and a serial
// continuation with two fresh clients. It returns the stitched history and
// the WAL bytes of the crashed run.
func crashRecoverContinue(t *testing.T) (*history.History, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.wal")
	hdr := wal.Header{Object: "atomic-fi", ObjName: "C", Procs: 2, Ops: 50, Seed: 7}
	log, err := wal.Create(path, hdr, wal.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Object:  NewAtomicFetchInc("C", 0),
		Clients: 2,
		Ops:     50,
		Seed:    7,
		Serial:  true,
		Sink:    log,
		Faults:  mustFaults(t, "crash:60"),
		Monitor: check.IncrementalConfig{Stride: 32},
	})
	if err != nil {
		t.Fatalf("crashed run: %v", err)
	}
	if !res.Crashed || res.CrashTicket != 60 {
		t.Fatalf("Crashed=%v CrashTicket=%d, want crash at 60", res.Crashed, res.CrashTicket)
	}
	walBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rec, err := wal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn {
		t.Fatalf("clean crash cut reported torn at %d", rec.TornAt)
	}
	if got := lastTicket(rec); got != 60 {
		t.Fatalf("last ticket = %d, want 60", got)
	}
	rr, err := Resume(NewAtomicFetchInc("C", 0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if rr.NextSeq != 60 || rr.Committed != 60 {
		t.Fatalf("NextSeq=%d Committed=%d, want 60/60", rr.NextSeq, rr.Committed)
	}

	res2, err := Run(Config{
		Object:   rr.Object,
		Clients:  2,
		Ops:      30,
		Seed:     8,
		Serial:   true,
		StartSeq: rr.NextSeq,
		ProcBase: hdr.Procs,
		History:  rec.History.Clone(),
		Monitor:  check.IncrementalConfig{Stride: 32},
	})
	if err != nil {
		t.Fatalf("continuation: %v", err)
	}
	if res2.Crashed || res2.Stopped {
		t.Fatalf("continuation crashed/stopped: %+v", res2)
	}
	if res2.Ops != 60 {
		t.Fatalf("continuation Ops = %d, want 60", res2.Ops)
	}
	return res2.History, walBytes
}

func TestCrashRecoverContinueSerialByteIdentical(t *testing.T) {
	h1, w1 := crashRecoverContinue(t)
	h2, w2 := crashRecoverContinue(t)
	if string(w1) != string(w2) {
		t.Fatal("WAL bytes differ across identical serial reruns")
	}
	f1 := h1.AppendFingerprint(nil)
	f2 := h2.AppendFingerprint(nil)
	if string(f1) != string(f2) {
		t.Fatal("stitched histories differ across identical serial reruns")
	}

	// The stitched pre+post-crash history still t-stabilizes: every window
	// of a correct counter is 0-linearizable and the trend classifies as
	// stabilized.
	obj := NewAtomicFetchInc("C", 0)
	mon := check.NewIncremental(obj.Spec(), check.IncrementalConfig{Stride: 32})
	for i := 0; i < h1.Len(); i++ {
		v, err := mon.Feed(h1.Event(i))
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if v != nil {
			t.Fatalf("stitched history violation: %v", v)
		}
	}
	if v, err := mon.Finish(); err != nil || v != nil {
		t.Fatalf("finish: %v / %v", err, v)
	}
	verdict := mon.Verdict()
	if verdict.Trend != check.TrendStabilized {
		t.Fatalf("stitched trend = %v (MinT %d), want stabilized", verdict.Trend, verdict.FinalMinT)
	}
}

func TestCrashRecoverGoroutine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	log, err := wal.Create(path, wal.Header{Object: "atomic-fi", ObjName: "C", Procs: 4, Seed: 3}, wal.SyncPolicy(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Object:  NewAtomicFetchInc("C", 0),
		Clients: 4,
		Ops:     500,
		Seed:    3,
		Sink:    log,
		Faults:  mustFaults(t, "crash:700"),
		Monitor: check.IncrementalConfig{Stride: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed {
		t.Fatal("run did not crash")
	}
	rec, err := wal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := lastTicket(rec); got != res.CrashTicket {
		t.Fatalf("last ticket = %d, CrashTicket = %d", got, res.CrashTicket)
	}
	rr, err := Resume(NewAtomicFetchInc("C", 0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(rr.Committed) != res.CrashTicket {
		t.Fatalf("Committed = %d, want %d", rr.Committed, res.CrashTicket)
	}
}

func TestCorruptTailRecoverLongestPrefix(t *testing.T) {
	path := serialLog(t, 40)
	clean, err := wal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}

	// Cut the tail: recovery lands on the longest valid prefix and the
	// prefix still verifies (replay reproduces it byte for byte).
	if err := mustFaults(t, "trunc:7").CorruptFile(path, 5); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn {
		t.Fatal("truncated tail not reported torn")
	}
	if rec.Frames >= clean.Frames || rec.Frames == 0 {
		t.Fatalf("recovered %d events of %d", rec.Frames, clean.Frames)
	}
	if _, err := Resume(NewAtomicFetchInc("C", 0), rec); err != nil {
		t.Fatal(err)
	}
	ok, err := Verify(NewAtomicFetchInc("C", 0), rec.History)
	if err != nil || !ok {
		t.Fatalf("recovered prefix failed verification: ok=%v err=%v", ok, err)
	}

	// Same with a mid-file bit flip (seed-derived offset).
	path2 := serialLog(t, 40)
	if err := mustFaults(t, "flip").CorruptFile(path2, 5); err != nil {
		t.Fatal(err)
	}
	rec2, err := wal.Recover(path2)
	if err != nil {
		// A flip inside the header frame is unrecoverable by design.
		t.Logf("flip hit the header region: %v", err)
		return
	}
	if rec2.Frames > clean.Frames {
		t.Fatalf("flip recovery produced %d events of %d", rec2.Frames, clean.Frames)
	}
	if _, err := Resume(NewAtomicFetchInc("C", 0), rec2); err != nil {
		t.Fatalf("resume after flip recovery: %v", err)
	}
}

// serialLog writes the commit log of a serial 2-client atomic-fi run of ops
// operations per client and returns its path.
func serialLog(t testing.TB, ops int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.wal")
	log, err := wal.Create(path, wal.Header{Object: "atomic-fi", ObjName: "C", Procs: 2, Ops: ops, Seed: 5}, wal.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{
		Object: NewAtomicFetchInc("C", 0), Clients: 2, Ops: ops, Seed: 5,
		Serial: true, Sink: log, MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
	}); err != nil {
		t.Fatal(err)
	}
	return path
}

// lastTicket returns the commit ticket of rec's last response.
func lastTicket(rec *wal.Recovered) uint64 {
	if len(rec.Tickets) == 0 {
		return 0
	}
	return rec.Tickets[len(rec.Tickets)-1]
}

// A Recovered holds the log, not a handle on the file, and Resume only reads
// it: a second Resume, after the file is gone, replays the same history to
// the same result and leaves that history as it was.
func TestResumeTwiceOnOneRecovered(t *testing.T) {
	path := serialLog(t, 40)
	if err := mustFaults(t, "trunc:7").CorruptFile(path, 5); err != nil { // pending invocations too
		t.Fatal(err)
	}
	rec, err := wal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	fp := string(rec.History.AppendFingerprint(nil))
	first, err := Resume(NewAtomicFetchInc("C", 0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	second, err := Resume(NewAtomicFetchInc("C", 0), rec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.History.Len() != rec.Frames || first.Committed == 0 || first.Pending == 0 {
		t.Fatalf("first resume: %d events of %d frames, %d committed, %d pending",
			rec.History.Len(), rec.Frames, first.Committed, first.Pending)
	}
	if first.NextSeq != second.NextSeq || first.Committed != second.Committed || first.Pending != second.Pending {
		t.Fatalf("second resume differs: %+v vs %+v", first, second)
	}
	if string(rec.History.AppendFingerprint(nil)) != fp {
		t.Fatal("Resume changed the recovered history")
	}
}

// Recovery costs memory in proportion to the log, not to a materialised
// copy of it: Recover plus Resume of a 100 000-event log allocate at most the
// file's size (the validated frames) plus 40 B/event: the recovered
// history's records, 32 B/event, the tickets, 8 B a response, and slack.
// Growing event and position slices by append spent about 570 B/event here.
func TestRecoverResumeAllocBytes(t *testing.T) {
	const events = 100_000
	path := serialLog(t, events/4)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	obj := NewAtomicFetchInc("C", 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err := wal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Resume(obj, rec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Frames != events || rr.Committed != events/2 {
		t.Fatalf("recovered %d frames, %d commits; want %d and %d", rec.Frames, rr.Committed, events, events/2)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(st.Size())+40*events
	t.Logf("Recover+Resume of %d events (%d-byte log): %d bytes, %.1f B/event beyond the file",
		events, st.Size(), got, float64(int64(got)-st.Size())/events)
	if got > limit {
		t.Fatalf("Recover+Resume allocated %d bytes, limit %d (file %d + 40 B/event)", got, limit, st.Size())
	}
}

func TestStallJitterSerialDeterministic(t *testing.T) {
	run := func() *history.History {
		res, err := Run(Config{
			Object:  NewAtomicFetchInc("C", 0),
			Clients: 3,
			Ops:     40,
			Seed:    11,
			Serial:  true,
			Faults:  mustFaults(t, "stall:0@10+25,jitter:5"),
			Monitor: check.IncrementalConfig{Stride: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != 120 {
			t.Fatalf("Ops = %d, want 120 (stall must not drop operations)", res.Ops)
		}
		return res.History
	}
	a, b := run(), run()
	if string(a.AppendFingerprint(nil)) != string(b.AppendFingerprint(nil)) {
		t.Fatal("faulted serial runs differ across reruns")
	}
}

func TestAllStalledEscapeSerial(t *testing.T) {
	// Every client stalled on a window nobody can move the ticket past:
	// the driver must force progress deterministically, not livelock.
	res, err := Run(Config{
		Object:      NewAtomicFetchInc("C", 0),
		Clients:     2,
		Ops:         5,
		Seed:        1,
		Serial:      true,
		Faults:      mustFaults(t, "stall:0@1+1000,stall:1@1+1000"),
		MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 10 {
		t.Fatalf("Ops = %d, want 10", res.Ops)
	}
}

func TestStallGoroutineCompletes(t *testing.T) {
	res, err := Run(Config{
		Object:      NewAtomicFetchInc("C", 0),
		Clients:     2,
		Ops:         200,
		Seed:        2,
		Faults:      mustFaults(t, "stall:0@20+50,stall:1@30+400"),
		MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 400 {
		t.Fatalf("Ops = %d, want 400", res.Ops)
	}
}

// failingObject errors on every Apply — exercises client-error context.
type failingObject struct{ AtomicFetchInc }

func (f *failingObject) Apply(proc int, op spec.Op, seq *atomic.Uint64) (int64, uint64, error) {
	return 0, 0, fmt.Errorf("synthetic fault")
}

func (f *failingObject) Fresh() (Object, error) { return f, nil }

func TestClientErrorContext(t *testing.T) {
	_, err := Run(Config{
		Object:      &failingObject{},
		Clients:     2,
		Ops:         3,
		Seed:        1,
		Serial:      true,
		MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
	})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "client 0 op 0 (ticket") {
		t.Fatalf("error lacks client/op/ticket context: %v", err)
	}
}

func TestJoinClientErrors(t *testing.T) {
	err := joinClientErrors([]clientError{
		{client: 2, err: fmt.Errorf("live: client 2 op 7 (ticket 31): boom")},
		{client: 0, err: fmt.Errorf("live: client 0 op 3 (ticket 12): bang")},
	})
	if err == nil {
		t.Fatal("want joined error")
	}
	msg := err.Error()
	i0 := strings.Index(msg, "client 0")
	i2 := strings.Index(msg, "client 2")
	if i0 < 0 || i2 < 0 {
		t.Fatalf("joined error drops a victim: %q", msg)
	}
	if i0 > i2 {
		t.Fatalf("victims not sorted by client id: %q", msg)
	}
}

// TestReplayRefusals is the negative table of the commit-order replay.
// Verify reports one altered response as a mismatch. Resume refuses a log
// whose response or ticket the replay does not derive; wal.Recover refuses
// a log History refuses (a double invoke, an orphan response) and an event
// of a process the header does not name. Each error names the event.
func TestReplayRefusals(t *testing.T) {
	clean, err := wal.Recover(serialLog(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	// The positions to write back: each response's ticket and, for an
	// invocation, the last ticket before it (what the serial driver stamps).
	events := clean.History.Events()
	pos := make([]uint64, len(events))
	var last uint64
	for i, k := 0, 0; i < len(events); i++ {
		if events[i].Kind == history.KindRespond {
			last, k = clean.Tickets[k], k+1
		}
		pos[i] = last
	}
	const inv, res = 6, 7 // an invocation and its response (serial: adjacent)
	if events[inv].Kind != history.KindInvoke || events[res].Kind != history.KindRespond || events[res].Proc != events[inv].Proc {
		t.Fatalf("events %d, %d = %v, %v; want an operation", inv, res, events[inv], events[res])
	}

	h, err := history.FromEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if same, err := Verify(NewAtomicFetchInc("C", 0), h); !same || err != nil {
		t.Fatalf("clean history: Verify = %v, %v", same, err)
	}
	altered := slices.Clone(events)
	altered[res].Resp++
	if h, err = history.FromEvents(altered); err != nil {
		t.Fatal(err)
	}
	if same, err := Verify(NewAtomicFetchInc("C", 0), h); same || err != nil {
		t.Fatalf("altered response: Verify = %v, %v; want false, nil", same, err)
	}

	for _, c := range []struct {
		name   string
		edit   func(ev []history.Event, ps []uint64) ([]history.Event, []uint64)
		prefix string // the error's source and the event it names
		event  int
		want   string
	}{
		{"altered response", func(ev []history.Event, ps []uint64) ([]history.Event, []uint64) {
			ev[res].Resp++
			return ev, ps
		}, "live: resume event %d: ", res, "log says"},
		{"altered ticket", func(ev []history.Event, ps []uint64) ([]history.Event, []uint64) {
			ps[res]++
			return ev, ps
		}, "live: resume event %d: ", res, "log says"},
		{"double invoke", func(ev []history.Event, ps []uint64) ([]history.Event, []uint64) {
			return slices.Insert(ev, inv, ev[inv]), slices.Insert(ps, inv, ps[inv])
		}, "edited.wal: event %d: ", inv + 1, "while operation at event 6 is pending"},
		{"orphan response", func(ev []history.Event, ps []uint64) ([]history.Event, []uint64) {
			return slices.Delete(ev, inv, inv+1), slices.Delete(ps, inv, inv+1)
		}, "edited.wal: event %d: ", inv, "responds with no pending invocation"},
		{"process past the header's", func(ev []history.Event, ps []uint64) ([]history.Event, []uint64) {
			ev[inv].Proc, ev[res].Proc = clean.Header.Procs, clean.Header.Procs
			return ev, ps
		}, "edited.wal: event %d: ", inv, "outside the header's 0..1"},
	} {
		ev, ps := c.edit(slices.Clone(events), slices.Clone(pos))
		path := filepath.Join(t.TempDir(), "edited.wal")
		log, err := wal.Create(path, clean.Header, wal.SyncNever)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ev {
			if err := log.Append(ev[i], ps[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := wal.Recover(path)
		if err == nil {
			_, err = Resume(NewAtomicFetchInc("C", 0), rec)
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(c.prefix, c.event)) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming event %d and %q", c.name, err, c.event, c.want)
		}
	}
}
