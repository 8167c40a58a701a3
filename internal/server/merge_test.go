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
