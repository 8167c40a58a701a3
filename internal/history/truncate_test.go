package history

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/elin-go/elin/internal/spec"
)

func TestTruncateRestoresPendingState(t *testing.T) {
	h := New()
	read, inc := spec.MakeOp(spec.MethodRead), spec.MakeOp(spec.MethodFetchInc)
	if err := h.Invoke(0, "X", read); err != nil {
		t.Fatal(err)
	}
	if err := h.Invoke(1, "X", inc); err != nil {
		t.Fatal(err)
	}
	if err := h.Respond(0, 7); err != nil {
		t.Fatal(err)
	}
	if h.Op(0) != read || h.Op(1) != inc || h.Op(2) != read {
		t.Fatalf("Op(0..2) = %v %v %v, want read fetchinc read", h.Op(0), h.Op(1), h.Op(2))
	}
	// Truncating the response reopens p0's invocation: responding again must
	// succeed, re-invoking must fail.
	h.Truncate(2)
	if err := h.Invoke(0, "X", read); err == nil {
		t.Fatal("p0 re-invoked with a pending operation after truncate")
	}
	if err := h.Respond(0, 9); err != nil {
		t.Fatalf("p0 could not respond after truncate: %v", err)
	}
	if h.Event(2).Resp != 9 || h.Op(2) != read {
		t.Fatalf("event 2 = %v answering %v", h.Event(2), h.Op(2))
	}
	// Truncating an invocation frees the process to invoke again.
	h.Truncate(1)
	if err := h.Invoke(1, "X", read); err != nil {
		t.Fatalf("p1 could not re-invoke after truncate: %v", err)
	}
}

func TestTruncateClamps(t *testing.T) {
	h := New()
	if err := h.Call(0, "X", spec.MakeOp(spec.MethodFetchInc), 0); err != nil {
		t.Fatal(err)
	}
	h.Truncate(99)
	if h.Len() != 2 {
		t.Fatalf("truncate beyond length changed the history: %d", h.Len())
	}
	h.Truncate(-3)
	if h.Len() != 0 {
		t.Fatalf("negative truncate: %d", h.Len())
	}
	if err := h.Invoke(0, "X", spec.MakeOp(spec.MethodRead)); err != nil {
		t.Fatalf("append after full truncate: %v", err)
	}
}

// TestTruncateMatchesPrefixRandomly drives a random append/truncate walk
// and checks the truncated history behaves exactly like a fresh Prefix.
func TestTruncateMatchesPrefixRandomly(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		h := New()
		var trace []Event
		for i := 0; i < 25; i++ {
			if r.Intn(4) == 0 && h.Len() > 0 {
				n := r.Intn(h.Len())
				h.Truncate(n)
				trace = trace[:n]
				continue
			}
			p := r.Intn(3)
			if r.Intn(2) == 0 {
				if err := h.Invoke(p, "X", spec.MakeOp(spec.MethodFetchInc)); err == nil {
					trace = append(trace, h.Event(h.Len()-1))
				}
			} else {
				if err := h.Respond(p, int64(i)); err == nil {
					trace = append(trace, h.Event(h.Len()-1))
				}
			}
		}
		want, err := FromEvents(trace)
		if err != nil {
			t.Fatalf("trial %d: trace not well-formed: %v", trial, err)
		}
		if h.String() != want.String() {
			t.Fatalf("trial %d: truncated history diverges from rebuilt history:\n%s\nvs\n%s",
				trial, h.String(), want.String())
		}
		// The fingerprints must agree too.
		if !bytes.Equal(h.AppendFingerprint(nil), want.AppendFingerprint(nil)) {
			t.Fatalf("trial %d: fingerprints diverge", trial)
		}
	}
}

func TestAppendFingerprintInjective(t *testing.T) {
	a := New()
	if err := a.Call(0, "X", spec.MakeOp1(spec.MethodWrite, 3), 0); err != nil {
		t.Fatal(err)
	}
	b := New()
	if err := b.Call(0, "X", spec.MakeOp1(spec.MethodWrite, 4), 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.AppendFingerprint(nil), b.AppendFingerprint(nil)) {
		t.Fatal("different histories share a fingerprint encoding")
	}
	c := a.Clone()
	if !bytes.Equal(a.AppendFingerprint(nil), c.AppendFingerprint(nil)) {
		t.Fatal("clone fingerprint diverges")
	}
}
