package history

import (
	"bytes"
	"runtime"
	"testing"
)

// checkDecoded is what FuzzReadText asks of a history a decoder accepted:
// encode → decode gives the same event sequence, and the operation table,
// which used to be indexed by process id, is built without panicking.
func checkDecoded(t *testing.T, h *History, encode func(*History) ([]byte, error), decode func([]byte) (*History, error)) {
	t.Helper()
	out, err := encode(h)
	if err != nil {
		t.Fatal(err)
	}
	again, err := decode(out)
	if err != nil {
		t.Fatalf("own output rejected: %v\n%s", err, out)
	}
	if !bytes.Equal(h.AppendFingerprint(nil), again.AppendFingerprint(nil)) {
		t.Fatalf("round trip changed the history:\n%s\nvs\n%s", h, again)
	}
	var tab OpTable
	tab.Fill(h)
	if ops := h.Operations(); len(ops) != len(tab.Ops) || len(ops)+len(tab.ByRes) != h.Len() {
		t.Fatalf("%d events make %d operations, %d in the table, %d of them complete", h.Len(), len(ops), len(tab.Ops), len(tab.ByRes))
	}
}

func readText(b []byte) (*History, error) { return ReadText(bytes.NewReader(b)) }

func writeText(h *History) ([]byte, error) {
	var buf bytes.Buffer
	err := h.WriteText(&buf)
	return buf.Bytes(), err
}

func readJSON(b []byte) (*History, error) {
	h := New()
	return h, h.UnmarshalJSON(b)
}

// FuzzReadText: arbitrary bytes as a text history and, since a negative
// process id can only arrive that way, as a JSON one. Neither decoder panics
// or allocates out of proportion to its input, and what one accepts passes
// checkDecoded. The seed corpus is testdata/fuzz/FuzzReadText.
func FuzzReadText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if h, err := readText(data); err == nil {
			checkDecoded(t, h, writeText, readText)
		}
		if h, err := readJSON(data); err == nil {
			checkDecoded(t, h, (*History).MarshalJSON, readJSON)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(data)+256<<10); got > limit {
			t.Fatalf("%d bytes of input allocated %d bytes (limit %d)", len(data), got, limit)
		}
	})
}
