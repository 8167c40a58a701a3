package check

import (
	"testing"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

func TestFetchIncFastPathNonzeroInit(t *testing.T) {
	obj := spec.Object{Type: spec.FetchInc{InitVal: 10}, Init: spec.IntState(10)}
	h := history.New()
	for i := int64(10); i < 14; i++ {
		if err := h.Call(0, "X", spec.MakeOp(spec.MethodFetchInc), i); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := TLinearizable(obj, h, 0, Options{})
	if err != nil || !ok {
		t.Fatalf("offset counter: %v, %v; want true", ok, err)
	}
	// A response below the initial value is illegal at t=0.
	bad := history.New()
	if err := bad.Call(0, "X", spec.MakeOp(spec.MethodFetchInc), 3); err != nil {
		t.Fatal(err)
	}
	ok, err = TLinearizable(obj, bad, 0, Options{})
	if err != nil || ok {
		t.Fatalf("below-init response: %v, %v; want false", ok, err)
	}
}

func TestFetchIncGapFilling(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	// Two ops answered in the prefix (free), suffix ops take slots 2 and 3:
	// gaps 0,1 are filled by the free ops.
	h := build(t).
		inv(0, "X", fi).inv(1, "X", fi).
		res(0, 7).res(1, 9). // events 0..3; responses garbage but in prefix
		call(0, "X", fi, 2).
		call(1, "X", fi, 3).h
	ok, err := TLinearizable(obj, h, 4, Options{})
	if err != nil || !ok {
		t.Fatalf("gap filling by free ops: %v, %v; want true", ok, err)
	}
	// With only one free op there is a hole at slot 1 that nothing fills.
	h2 := build(t).
		inv(0, "X", fi).
		res(0, 7).
		call(0, "X", fi, 2).
		call(1, "X", fi, 3).h
	ok, err = TLinearizable(obj, h2, 2, Options{})
	if err != nil || ok {
		t.Fatalf("unfillable gap: %v, %v; want false", ok, err)
	}
}

func TestFetchIncPendingThreshold(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	// A pending op invoked after a suffix response with slot 1 cannot fill
	// gap 0 (real-time lower bound), so the history is not t-linearizable.
	h := build(t).
		call(0, "X", fi, 1). // suffix op with slot 1 (events 0,1)
		inv(1, "X", fi).h    // pending, invoked at event 2 (after res at 1)
	ok, err := TLinearizable(obj, h, 0, Options{})
	if err != nil || ok {
		t.Fatalf("pending below threshold filled gap: %v, %v; want false", ok, err)
	}
	// But a pending op invoked before the suffix response can fill gap 0.
	h2 := build(t).
		inv(1, "X", fi).
		call(0, "X", fi, 1).h
	ok, err = TLinearizable(obj, h2, 0, Options{})
	if err != nil || !ok {
		t.Fatalf("pending above threshold: %v, %v; want true", ok, err)
	}
}

func TestFetchIncRealTimeEdgeBetweenConstrained(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	// Sequential ops with decreasing responses violate real-time order.
	h := build(t).
		call(0, "X", fi, 1).
		call(0, "X", fi, 0).h
	ok, err := TLinearizable(obj, h, 0, Options{})
	if err != nil || ok {
		t.Fatalf("decreasing sequential responses: %v, %v; want false", ok, err)
	}
	// With t past the first response, the first op becomes free and the
	// history is fixable.
	ok, err = TLinearizable(obj, h, 2, Options{})
	if err != nil || !ok {
		t.Fatalf("after cut: %v, %v; want true", ok, err)
	}
}

func TestFetchIncSlots(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	h := build(t).
		call(0, "X", fi, 0).
		call(1, "X", fi, 1).h
	slots, err := FetchIncSlots(obj, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if slots[0] != 0 || slots[1] != 1 {
		t.Fatalf("slots = %v", slots)
	}
	// With t = 2 the first op is unconstrained and has no slot.
	slots, err = FetchIncSlots(obj, h, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := slots[0]; ok {
		t.Fatalf("slot for free op should be absent: %v", slots)
	}
}

func TestMinTFetchIncLongHistory(t *testing.T) {
	// The fast path makes MinT tractable on long histories. A sloppy
	// counter that answers k/2 duplicated values has MinT that grows; an
	// atomic counter has MinT 0.
	obj := spec.NewObject(spec.FetchInc{})
	h := history.New()
	for i := 0; i < 120; i++ {
		if err := h.Call(i%2, "X", fi, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	mt, ok, err := MinT(obj, h, Options{})
	if err != nil || !ok || mt != 0 {
		t.Fatalf("atomic long history MinT = %d, %v, %v; want 0", mt, ok, err)
	}

	dup := history.New()
	for i := 0; i < 120; i++ {
		if err := dup.Call(i%2, "X", fi, int64(i/2)); err != nil {
			t.Fatal(err)
		}
	}
	mt, ok, err = MinT(obj, dup, Options{})
	if err != nil || !ok {
		t.Fatalf("MinT failed: %v %v", ok, err)
	}
	// Every duplicated pair forces the cut past its first response; with
	// duplicates throughout, MinT must reach into the last pair.
	if mt < 200 {
		t.Fatalf("sloppy long history MinT = %d; want near the end (>=200)", mt)
	}
}
