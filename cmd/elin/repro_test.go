package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/campaign"
	"github.com/elin-go/elin/internal/scenario"
)

// shellFields splits a printed rerun command the way a POSIX shell would:
// on spaces, honouring single quotes and backslash escapes outside them —
// all campaign's shellArg ever emits.
func shellFields(cmd string) []string {
	var fields []string
	var cur strings.Builder
	quoted, started := false, false
	for i := 0; i < len(cmd); i++ {
		switch ch := cmd[i]; {
		case ch == '\'':
			quoted, started = !quoted, true
		case ch == '\\' && !quoted && i+1 < len(cmd):
			i++
			cur.WriteByte(cmd[i])
		case ch == ' ' && !quoted:
			if started || cur.Len() > 0 {
				fields = append(fields, cur.String())
			}
			cur.Reset()
			started = false
		default:
			cur.WriteByte(ch)
		}
	}
	if started || cur.Len() > 0 {
		fields = append(fields, cur.String())
	}
	return fields
}

// TestReproRoundTrip executes the rerun commands the sweep gate prints:
// for chosen cells of the two committed CI grids (every engine; a faulted
// and a sampled-monitor live cell, a net-faulted wal-sync serve cell, a
// parameterized slog-batch:K impl) plus one cell whose workload needs
// shell quoting, the printed command goes back through run() with -json,
// and the report it produces must occupy the very cell that printed it.
func TestReproRoundTrip(t *testing.T) {
	quoted := &campaign.Spec{
		Schema: campaign.SpecSchema,
		Name:   "quoted",
		Axes: campaign.Axes{
			Impl:     []string{"el-register"},
			Workload: []string{"uniform:write(3)"},
			Ops:      []int{1},
		},
	}
	picks := []struct {
		spec  string // a committed grid, or "" for the quoted spec above
		cell  string // fragments the picked cell's identity must contain, space-separated
		flags string // fragments its rerun command must contain
	}{
		{smokeSpecPath, "engine=explore impl=cas-counter procs=3 ops=2", "elin explore -mode lin -depth 12"},
		{smokeSpecPath, "engine=sim impl=slog-batch:1 policy=window:2", "elin sim -impl slog-batch:1 -chooser stale"},
		{smokeSpecPath, "engine=live faults=stall:0@2+2,jitter:2", "elin stress -faults 'stall:0@2+2,jitter:2'"},
		{smokeSpecPath, "engine=live impl=slog-batch:1 monitor=sample:2", "-monitor sample:2"},
		{"../../.github/sweeps/netsmoke.json", "engine=serve netfaults=drop:0@40 walsync=interval:4",
			"elin load -self -net-faults 'drop:0@40' -wal-sync interval:4 -wal /tmp/elin-rerun.wal"},
		{"", "engine=sim workload=uniform:write(3)", "-workload 'uniform:write(3)'"},
	}
	repros := map[string]map[string]string{} // spec -> cell id -> rerun command
	for _, pick := range picks {
		if repros[pick.spec] != nil {
			continue
		}
		sp := quoted
		if pick.spec != "" {
			var err error
			if sp, err = campaign.LoadSpec(pick.spec); err != nil {
				t.Fatal(err)
			}
		}
		camp, err := campaign.Run(sp, campaign.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Against an empty baseline every cell is new, and new cells carry
		// their rerun command.
		repros[pick.spec] = map[string]string{}
		for _, d := range campaign.Compare(&campaign.Campaign{}, camp).New {
			repros[pick.spec][d.ID] = d.Repro
		}
	}

	containsAll := func(s, fragments string) bool {
		for _, frag := range strings.Fields(fragments) {
			if !strings.Contains(s+" ", frag+" ") {
				return false
			}
		}
		return true
	}
	for _, pick := range picks {
		var id, repro string
		for cid, r := range repros[pick.spec] {
			if containsAll(cid, pick.cell) && (id == "" || cid < id) {
				id, repro = cid, r
			}
		}
		if id == "" {
			t.Errorf("no cell matching %q in %q", pick.cell, pick.spec)
			continue
		}
		if !containsAll(repro, pick.flags) {
			t.Errorf("cell %s: rerun command %q misses %q", id, repro, pick.flags)
		}
		args := shellFields(repro)
		if len(args) < 2 || args[0] != "elin" {
			t.Errorf("cell %s: rerun command %q does not start with elin", id, repro)
			continue
		}
		for i, a := range args {
			if a == "/tmp/elin-rerun.wal" {
				args[i] = filepath.Join(t.TempDir(), "rerun.wal")
			}
		}
		var buf bytes.Buffer
		if err := run(append(args[1:], "-json"), &buf); err != nil {
			t.Errorf("cell %s: rerun %q: %v", id, repro, err)
			continue
		}
		var rep scenario.Report
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Errorf("cell %s: rerun %q printed no report: %v", id, repro, err)
			continue
		}
		if got := rep.CellID(); got != id {
			t.Errorf("rerun command left its cell:\n  cell  %s\n  rerun %s\n  ran   %s", id, repro, got)
		}
	}
}

// TestHeaderEchoesEveryOption pins the human header against the cell
// identity: every option the CellID carries is echoed, in CellID order and
// under its axis name, monitor last (ci.yml greps `monitor=…$`). The
// faults= echo was missing before the header walked the coordinate table.
func TestHeaderEchoesEveryOption(t *testing.T) {
	header := func(args ...string) string {
		first, _, _ := strings.Cut(runOut(t, args...), "\n")
		return first
	}
	base := []string{"stress", "-impl", "atomic-fi", "-procs", "2", "-ops", "50", "-serial"}
	if got, want := header(base...), "engine=live impl=atomic-fi workload=default procs=2 ops=50 seed=1"; got != want {
		t.Errorf("default header = %q, want %q", got, want)
	}
	got := header(append(base, "-faults", "jitter-light", "-monitor", "sample:02",
		"-wal", filepath.Join(t.TempDir(), "h.wal"))...)
	if want := " seed=1 faults=jitter:3 wal-sync=never monitor=sample:2"; !strings.HasSuffix(got, want) {
		t.Errorf("header = %q, want suffix %q", got, want)
	}
}
