package main

import (
	"testing"
)

// The monitors section is part of the CLI contract: exact lines, so a
// renamed spec form or reworded doc is a conscious change here too.
func TestListMonitors(t *testing.T) {
	out := runOut(t, "list", "-section", "monitors")
	want := "full      sequential exhaustive windowed checking (the default)\n" +
		"sample:N  check every Nth window, escalate back to full on a near-violation\n" +
		"shard:K   pipelined windowed checking on K parallel workers\n" +
		"none      record only, no online checking\n"
	if out != want {
		t.Errorf("list -section monitors drifted:\ngot:\n%swant:\n%s", out, want)
	}
}
