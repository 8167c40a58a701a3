package check

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// weakResponses is AppendWeakResponses on h's table and a fresh buffer.
func weakResponses(obj spec.Object, h *history.History, proc int, opts Options) ([]int64, error) {
	var tb history.OpTable
	tb.Fill(h)
	return AppendWeakResponses(nil, obj, &tb, proc, opts)
}

func TestWeakConsistencyRegisterBasics(t *testing.T) {
	// A read that returns a value nobody wrote is "out of left field".
	h := build(t).
		call(0, "X", wr(1), 0).
		call(1, "X", rd, 7).h
	ok, bad, err := WeaklyConsistentExplain(regX, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok || bad == "" {
		t.Fatalf("out-of-left-field read accepted (ok=%v bad=%q)", ok, bad)
	}

	// A stale read (initial value) by another process is fine even after a
	// write by someone else: weak consistency only forces your own ops.
	h2 := build(t).
		call(0, "X", wr(1), 0).
		call(1, "X", rd, 0).h
	ok, err = WeaklyConsistent(regX, h2, Options{})
	if err != nil || !ok {
		t.Fatalf("stale read rejected: %v, %v", ok, err)
	}

	// But a process that wrote 1 itself may not read the initial 0 back.
	h3 := build(t).
		call(0, "X", wr(1), 0).
		call(0, "X", rd, 0).h
	ok, err = WeaklyConsistent(regX, h3, Options{})
	if err != nil || ok {
		t.Fatalf("self-stale read accepted: %v, %v", ok, err)
	}

	// Reading another process's value instead of your own is allowed: S
	// can order your write before theirs.
	h4 := build(t).
		call(1, "X", wr(2), 0).
		call(0, "X", wr(1), 0).
		call(0, "X", rd, 2).h
	ok, err = WeaklyConsistent(regX, h4, Options{})
	if err != nil || !ok {
		t.Fatalf("cross read rejected: %v, %v", ok, err)
	}

	// A value whose write is invoked before the read's response is
	// readable even if the write is still pending.
	h5 := build(t).
		inv(0, "X", wr(5)).
		call(1, "X", rd, 5).h
	ok, err = WeaklyConsistent(regX, h5, Options{})
	if err != nil || !ok {
		t.Fatalf("pending write value rejected: %v, %v", ok, err)
	}

	// A value written only AFTER the read terminated is out of left field.
	h6 := build(t).
		call(1, "X", rd, 5).
		call(0, "X", wr(5), 0).h
	ok, err = WeaklyConsistent(regX, h6, Options{})
	if err != nil || ok {
		t.Fatalf("future value accepted: %v, %v", ok, err)
	}

	// A write answering nonzero is illegal.
	h7 := build(t).call(0, "X", wr(1), 3).h
	ok, err = WeaklyConsistent(regX, h7, Options{})
	if err != nil || ok {
		t.Fatalf("nonzero write ack accepted: %v, %v", ok, err)
	}
}

func TestWeakConsistencyFetchInc(t *testing.T) {
	// Duplicate responses are weakly consistent (each op has a witness
	// ignoring the other): this is exactly why eventual linearizability is
	// strictly stronger than weak consistency.
	h := build(t).
		inv(0, "X", fi).inv(1, "X", fi).
		res(0, 0).res(1, 0).h
	ok, err := WeaklyConsistent(fincX, h, Options{})
	if err != nil || !ok {
		t.Fatalf("duplicate fetchinc rejected: %v, %v", ok, err)
	}

	// A process must count its own increments: second op by p0 cannot
	// return 0 again.
	h2 := build(t).
		call(0, "X", fi, 0).
		call(0, "X", fi, 0).h
	ok, err = WeaklyConsistent(fincX, h2, Options{})
	if err != nil || ok {
		t.Fatalf("self-duplicate accepted: %v, %v", ok, err)
	}

	// Responses can never exceed the number of candidate predecessors.
	h3 := build(t).call(0, "X", fi, 5).h
	ok, err = WeaklyConsistent(fincX, h3, Options{})
	if err != nil || ok {
		t.Fatalf("overshoot accepted: %v, %v", ok, err)
	}
}

func TestWeakResponsesRegister(t *testing.T) {
	// p1 is about to answer a read; writes of 1 (complete) and 5 (pending)
	// are in flight, and p1 itself never wrote, so {0, 1, 5} are the
	// weakly consistent answers.
	h := build(t).
		call(0, "X", wr(1), 0).
		inv(2, "X", wr(5)).
		inv(1, "X", rd).h
	got, err := weakResponses(regX["X"], h, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int64{0, 1, 5}
	if len(got) != len(want) {
		t.Fatalf("AppendWeakResponses = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendWeakResponses = %v, want %v", got, want)
		}
	}

	// The set is appended after what buf holds, and deduplicated only
	// among itself: in the order the writes were invoked, then the initial
	// value.
	var tb history.OpTable
	tb.Fill(h)
	got, err = AppendWeakResponses([]int64{1}, regX["X"], &tb, 1, Options{})
	if err != nil || !slices.Equal(got, []int64{1, 1, 5, 0}) {
		t.Fatalf("AppendWeakResponses([1]) = %v, %v, want [1 1 5 0]", got, err)
	}

	// After p1 writes 9 itself, 0 is no longer an answer for its read.
	h2 := build(t).
		call(0, "X", wr(1), 0).
		call(1, "X", wr(9), 0).
		inv(1, "X", rd).h
	got, err = weakResponses(regX["X"], h2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want = []int64{1, 9}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("AppendWeakResponses = %v, want %v", got, want)
	}

	// Past weakScanMax distinct values the set is deduplicated by a map:
	// the order and the set are the same. Writes of 0..39, each value twice
	// (once before the switch, once after), then the read.
	b := build(t)
	want = nil
	for i := 0; i < 40; i++ {
		b.call(0, "X", wr(int64(i)), 0)
		want = append(want, int64(i))
	}
	for i := 0; i < 40; i++ {
		b.call(0, "X", wr(int64(i)), 0)
	}
	got, err = weakResponses(regX["X"], b.inv(1, "X", rd).h, 1, Options{})
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("AppendWeakResponses after 80 writes = %v, %v, want %v", got, err, want)
	}
}

func TestWeakResponsesFetchInc(t *testing.T) {
	// p0 did one op (0), p1 in flight, p0 asking again: must return >= 1
	// (own op counted) and <= 2 (own + p1's candidate).
	h := build(t).
		call(0, "X", fi, 0).
		inv(1, "X", fi).
		inv(0, "X", fi).h
	got, err := weakResponses(fincX["X"], h, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("AppendWeakResponses = %v, want [1 2]", got)
	}

	// p1's first op after p0's completed one may ignore it (0) or count it (1).
	h2 := build(t).
		call(0, "X", fi, 0).
		inv(1, "X", fi).h
	got, err = weakResponses(fincX["X"], h2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("AppendWeakResponses = %v, want [0 1]", got)
	}
}

func TestWeakResponsesErrors(t *testing.T) {
	h := build(t).call(0, "X", fi, 0).h
	if _, err := weakResponses(fincX["X"], h, 0, Options{}); err == nil {
		t.Error("AppendWeakResponses accepted a process with no pending op")
	}
	multi := build(t).call(0, "X", fi, 0).inv(0, "Y", rd).h
	if _, err := weakResponses(fincX["X"], multi, 0, Options{}); err == nil {
		t.Error("AppendWeakResponses accepted a multi-object history")
	}
}

func TestWeakConsistencyQueueGeneric(t *testing.T) {
	// Queue has no fast path: exercises the generic enumerator. A dequeue
	// returning a value that was never enqueued is out of left field.
	queueX := map[string]spec.Object{"X": spec.NewObject(spec.Queue{})}
	enq := func(v int64) spec.Op { return spec.MakeOp1(spec.MethodEnq, v) }
	deq := spec.MakeOp(spec.MethodDeq)

	h := build(t).
		call(0, "X", enq(4), 0).
		call(1, "X", deq, 4).h
	ok, err := WeaklyConsistent(queueX, h, Options{})
	if err != nil || !ok {
		t.Fatalf("legit dequeue rejected: %v, %v", ok, err)
	}

	h2 := build(t).
		call(0, "X", enq(4), 0).
		call(1, "X", deq, 9).h
	ok, err = WeaklyConsistent(queueX, h2, Options{})
	if err != nil || ok {
		t.Fatalf("phantom dequeue accepted: %v, %v", ok, err)
	}

	// Empty-dequeue by a process that enqueued itself is not weakly
	// consistent (its own enqueue must be in S before the dequeue).
	h3 := build(t).
		call(0, "X", enq(4), 0).
		call(0, "X", deq, spec.EmptyDeq).h
	ok, err = WeaklyConsistent(queueX, h3, Options{})
	if err != nil || ok {
		t.Fatalf("self-ignoring dequeue accepted: %v, %v", ok, err)
	}

	// ... but fine for another process (it may not have "seen" the enq).
	h4 := build(t).
		call(0, "X", enq(4), 0).
		call(1, "X", deq, spec.EmptyDeq).h
	ok, err = WeaklyConsistent(queueX, h4, Options{})
	if err != nil || !ok {
		t.Fatalf("fresh-process empty dequeue rejected: %v, %v", ok, err)
	}
}

func TestWeaklyConsistentMissingSpec(t *testing.T) {
	h := build(t).call(0, "X", fi, 0).h
	if _, err := WeaklyConsistent(map[string]spec.Object{}, h, Options{}); err == nil {
		t.Error("missing spec accepted")
	}
}

func TestWeakConsistencySafetyPrefixClosure(t *testing.T) {
	// Lemma 10: weak consistency is prefix-closed. Checked on random
	// histories: whenever H is weakly consistent, so is every prefix.
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		h := typeHistory(r, regX["X"], regOps, 3, 6, 0.4)
		ok, err := WeaklyConsistent(regX, h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		for k := 0; k <= h.Len(); k++ {
			pok, err := WeaklyConsistent(regX, h.Prefix(k), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !pok {
				t.Fatalf("trial %d: H weakly consistent but prefix %d is not\n%s", trial, k, h)
			}
		}
	}
}
