package server

import (
	"testing"

	"github.com/elin-go/elin/internal/live"
)

// TestMergeStepDrainsAgainAfterShutdown is the deterministic form of the
// lost-last-event race: Shutdown finishes the shards and raises finishing
// while a drain is in flight on a snapshot taken before, and that drain
// moves nothing because its snapshot held the last event back. The loop
// must drain once more — on a snapshot that sees the shards done — before
// it may stop.
func TestMergeStepDrainsAgainAfterShutdown(t *testing.T) {
	s, err := New(Config{Object: live.NewAtomicFetchInc("C", 0), Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	staleDrain := func() (int, error) {
		s.finishing.Store(true) // Shutdown runs to here inside the drain
		return 0, nil
	}
	if s.mergeStep(staleDrain) {
		t.Fatal("merge loop stopped on an empty drain that began before Shutdown finished the shards")
	}
	if s.mergeStep(func() (int, error) { return 1, nil }) {
		t.Fatal("merge loop stopped on a drain that moved an event")
	}
	if !s.mergeStep(func() (int, error) { return 0, nil }) {
		t.Fatal("merge loop kept going after a drain that began with the shards finished moved nothing")
	}
}

// TestOverloadEngagesOnce: the queued high-water mark never comes down, so
// the overload controller must degrade the monitor once per run — not on
// every merge turn the mark stands, which would undo the monitor's
// near-violation escalation back to exhaustive checking a turn later.
func TestOverloadEngagesOnce(t *testing.T) {
	s, err := New(Config{Object: live.NewAtomicFetchInc("C", 0), Clients: 1, OverloadQueued: 4, SampleEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	mon := s.pipe.Monitor()
	s.queuedHW.Store(4)
	s.checkOverload()
	if got := mon.Sampling().Every; got != 8 {
		t.Fatalf("sample every %d after the overload mark was crossed, want 8", got)
	}
	mon.SetSampleEvery(1) // the monitor's escalation
	s.checkOverload()
	if got := mon.Sampling().Every; got != 1 {
		t.Fatalf("sample every %d: the controller undid the escalation", got)
	}
	go s.mergeLoop()
	sum, err := s.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Overloaded || sum.MonSampleEvery != 1 || sum.MonMaxSampleEvery != 8 {
		t.Fatalf("summary overloaded=%v sample-every=%d max=%d, want true 1 8", sum.Overloaded, sum.MonSampleEvery, sum.MonMaxSampleEvery)
	}
}
