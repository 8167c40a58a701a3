package live

import (
	"sync/atomic"
	"testing"

	"github.com/elin-go/elin/internal/spec"
)

func TestSlogFetchIncBatchOneIsLinearizable(t *testing.T) {
	obj, err := NewSlogFetchInc("C", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var seq atomic.Uint64
	for i := 0; i < 6; i++ {
		resp, ticket, err := obj.Apply(i%2, spec.MakeOp(spec.MethodFetchInc), &seq)
		if err != nil {
			t.Fatal(err)
		}
		if resp != int64(i) || ticket != uint64(i+1) {
			t.Fatalf("op %d: resp=%d ticket=%d, want resp=%d ticket=%d", i, resp, ticket, i, i+1)
		}
	}
}

func TestSlogFetchIncStalenessBounded(t *testing.T) {
	const batch = 4
	obj, err := NewSlogFetchInc("C", batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	var seq atomic.Uint64
	for i := 0; i < 60; i++ {
		resp, ticket, err := obj.Apply(i%3, spec.MakeOp(spec.MethodFetchInc), &seq)
		if err != nil {
			t.Fatal(err)
		}
		pos := int64(ticket) - 1
		if resp > pos || pos-resp >= batch {
			t.Fatalf("op %d at pos %d answered %d: staleness out of [0,%d)", i, pos, resp, batch)
		}
	}
}

func TestSlogFetchIncReplayDeterministic(t *testing.T) {
	procs := []int{0, 1, 1, 0, 2, 2, 0, 1, 2, 0, 0, 1}
	run := func(obj Object) []int64 {
		var seq atomic.Uint64
		resps := make([]int64, len(procs))
		for i, p := range procs {
			resp, _, err := obj.Apply(p, spec.MakeOp(spec.MethodFetchInc), &seq)
			if err != nil {
				t.Fatal(err)
			}
			resps[i] = resp
		}
		return resps
	}
	obj, err := NewSlogFetchInc("C", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := run(obj)
	fresh, err := obj.Fresh()
	if err != nil {
		t.Fatal(err)
	}
	b := run(fresh)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at op %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSlogFetchIncErrors(t *testing.T) {
	if _, err := NewSlogFetchInc("C", 0, 2); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := NewSlogFetchInc("C", 4, 0); err == nil {
		t.Fatal("0 clients accepted")
	}
	obj, err := NewSlogFetchInc("C", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var seq atomic.Uint64
	if _, _, err := obj.Apply(0, spec.MakeOp(spec.MethodRead), &seq); err == nil {
		t.Fatal("read accepted by a fetchinc object")
	}
	if _, _, err := obj.Apply(5, spec.MakeOp(spec.MethodFetchInc), &seq); err == nil {
		t.Fatal("out-of-range proc accepted")
	}
}
