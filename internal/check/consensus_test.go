package check

import (
	"testing"

	"github.com/elin-go/elin/internal/spec"
)

var (
	prop  = func(v int64) spec.Op { return spec.MakeOp1(spec.MethodPropose, v) }
	consX = map[string]spec.Object{"X": spec.NewObject(spec.Consensus{})}
)

func TestConsensusLinearizableBasics(t *testing.T) {
	// Sequential agreement: linearizable.
	h := build(t).
		call(0, "X", prop(5), 5).
		call(1, "X", prop(9), 5).h
	ok, err := Linearizable(consX, h, Options{})
	if err != nil || !ok {
		t.Fatalf("agreeing history: %v %v", ok, err)
	}

	// Sequential disagreement: not linearizable, but 2-linearizable (the
	// first response moves into the prefix and is reassigned).
	bad := build(t).
		call(0, "X", prop(5), 5).
		call(1, "X", prop(9), 9).h
	ok, err = Linearizable(consX, bad, Options{})
	if err != nil || ok {
		t.Fatalf("disagreeing history linearizable: %v %v", ok, err)
	}
	ok, err = TLinearizable(consX["X"], bad, 2, Options{})
	if err != nil || !ok {
		t.Fatalf("disagreeing history not 2-linearizable: %v %v", ok, err)
	}

	// Deciding a never-proposed value is out of the question even after
	// any cut (no leader proposes it).
	ghost := build(t).
		call(0, "X", prop(5), 7).h
	ok, err = TLinearizable(consX["X"], ghost, 0, Options{})
	if err != nil || ok {
		t.Fatalf("ghost decision accepted: %v %v", ok, err)
	}
}

func TestConsensusLeaderRealTime(t *testing.T) {
	// p1 proposes 9 only AFTER p0's propose(5) returned 5... and a later
	// op answers 9 in the suffix: the leader proposing 9 was invoked after
	// the suffix-answered response of p0's op, so ordering 9 first
	// violates real time -> not 0-linearizable.
	h := build(t).
		call(0, "X", prop(5), 5).  // events 0,1 (suffix at t=0)
		call(1, "X", prop(9), 9).h // events 2,3: disagreement
	ok, err := TLinearizable(consX["X"], h, 0, Options{})
	if err != nil || ok {
		t.Fatalf("real-time violating leader accepted: %v %v", ok, err)
	}
	// With t=2 (p0's response freed), p1's 9 can lead and p0's response is
	// reassigned to 9.
	ok, err = TLinearizable(consX["X"], h, 2, Options{})
	if err != nil || !ok {
		t.Fatalf("t=2 should fix it: %v %v", ok, err)
	}
}

func TestConsensusConcurrentLeader(t *testing.T) {
	// Overlapping proposes may decide either value.
	h := build(t).
		inv(0, "X", prop(5)).
		inv(1, "X", prop(9)).
		res(0, 9).
		res(1, 9).h
	ok, err := Linearizable(consX, h, Options{})
	if err != nil || !ok {
		t.Fatalf("concurrent decision: %v %v", ok, err)
	}
}

func TestConsensusPreDecided(t *testing.T) {
	obj := spec.Object{Type: spec.Consensus{}, Init: int64(4)}
	h := build(t).
		call(0, "X", prop(9), 4).
		call(1, "X", prop(1), 4).h
	ok, err := TLinearizable(obj, h, 0, Options{})
	if err != nil || !ok {
		t.Fatalf("pre-decided: %v %v", ok, err)
	}
	bad := build(t).call(0, "X", prop(9), 9).h
	ok, err = TLinearizable(obj, bad, 0, Options{})
	if err != nil || ok {
		t.Fatalf("pre-decided override accepted: %v %v", ok, err)
	}
	// Moving the response into the prefix frees it.
	ok, err = TLinearizable(obj, bad, 2, Options{})
	if err != nil || !ok {
		t.Fatalf("pre-decided with free prefix: %v %v", ok, err)
	}
}
