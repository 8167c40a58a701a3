package wal

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/history"
)

// checkPayload is FuzzDecodeEventPayload's property: decoding never panics,
// and what decodes re-encodes to a payload that decodes to the same event
// and position (not to the same bytes — the decoder takes padded varints the
// encoder never emits).
func checkPayload(t *testing.T, b []byte) {
	t.Helper()
	var e, e2 history.Event
	pos, err := decodePayload(b, &e)
	if err != nil {
		return
	}
	pos2, err := decodePayload(appendPayload(nil, &e, pos), &e2)
	if err != nil || e2 != e || pos2 != pos {
		t.Fatalf("payload %x decodes to %+v@%d, whose encoding decodes to %+v@%d (err %v)", b, e, pos, e2, pos2, err)
	}
}

// checkLog is FuzzRecover's property on data as a log file: Recover never
// panics, agrees with the materialising oracle on everything (error, header,
// events, tickets, kept positions, Frames, Torn, TornAt <= the file's
// length), recovers events every one of which survives re-encoding, and
// allocates in proportion to the file however large a length prefix claims
// its frame to be.
func checkLog(t *testing.T, path string, data []byte) {
	t.Helper()
	rec, evs := recoverChecked(t, path, data)
	if rec == nil {
		return
	}
	pos := keptPositions(t, rec)
	for i, e := range evs {
		e.Obj = "" // travels in the header, not in the payload
		checkPayload(t, appendPayload(nil, &e, pos[i]))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = Recover(path)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+16<<10); got > limit {
		t.Fatalf("Recover of a %d-byte file allocated %d bytes (limit %d)", len(data), got, limit)
	}
}

// FuzzRecover: arbitrary bytes as a log file. The seed corpus is
// testdata/fuzz/FuzzRecover.
func FuzzRecover(f *testing.F) {
	path := filepath.Join(f.TempDir(), "fuzz.wal")
	f.Fuzz(func(t *testing.T, data []byte) { checkLog(t, path, data) })
}

// FuzzDecodeEventPayload: arbitrary bytes as an event payload. The seed
// corpus is testdata/fuzz/FuzzDecodeEventPayload.
func FuzzDecodeEventPayload(f *testing.F) {
	f.Fuzz(checkPayload)
}

// FuzzChecksum: arbitrary bytes checksummed by the kernel and by the
// library. The seed corpus is testdata/fuzz/FuzzChecksum.
func FuzzChecksum(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := checksum(b), crc32.ChecksumIEEE(b); got != want {
			t.Fatalf("checksum of %x = %08x, want %08x", b, got, want)
		}
	})
}

// checkSyncPolicy is FuzzParseSyncPolicy's property on s: the parser never
// panics, and a policy it accepts prints as a spelling that parses back to
// it.
func checkSyncPolicy(t *testing.T, s string) {
	t.Helper()
	p, err := ParseSyncPolicy(s)
	if err != nil {
		return
	}
	if again, err := ParseSyncPolicy(p.String()); err != nil || again != p {
		t.Fatalf("%q parses to %d, whose String %q parses to %d (err %v)", s, p, p.String(), again, err)
	}
}

// FuzzParseSyncPolicy: arbitrary strings as a -wal-sync value. The seed
// corpus is testdata/fuzz/FuzzParseSyncPolicy.
func FuzzParseSyncPolicy(f *testing.F) {
	f.Fuzz(checkSyncPolicy)
}

// The fuzz bodies in tier-1: random payloads of either kind, the clean log
// with random bytes spliced over a random span (plain random bytes would
// never get past the magic), and sync policies spelled from the grammar's
// own tokens.
func TestQuickFuzzBodies(t *testing.T) {
	tokens := []string{"", "always", "never", "interval:", "interval", ":", "0", "16", "+2", "-1", " ", "9223372036854775808"}
	policy := func(a, b, c uint8) bool {
		checkSyncPolicy(t, tokens[int(a)%len(tokens)]+tokens[int(b)%len(tokens)]+tokens[int(c)%len(tokens)])
		return !t.Failed()
	}
	if err := quick.Check(policy, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	path, _, _ := writeLog(t, SyncNever)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(b []byte) bool {
		if len(b) > 0 {
			b[0] = byte(history.KindInvoke) + b[0]&1 // a kind the decoder reads past
		}
		checkPayload(t, b)
		return !t.Failed()
	}
	if err := quick.Check(payload, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	log := func(splice []byte, at, drop uint16) bool {
		lo := int(at) % (len(clean) + 1)
		hi := min(lo+int(drop)%16, len(clean))
		checkLog(t, path, bytes.Join([][]byte{clean[:lo], splice, clean[hi:]}, nil))
		return !t.Failed()
	}
	if err := quick.Check(log, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
