package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
)

// ----------------------------------------------------------------------------
// elin load -self: the self-contained serve engine from the CLI — the form
// sweep repro commands print.

func TestLoadSelf(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "load.wal")
	out := runOut(t, "load", "-self", "-impl", "atomic-fi", "-procs", "3", "-ops", "80",
		"-net-faults", "drop-one", "-wal", wal, "-wal-sync", "interval:4", "-quiet")
	for _, want := range []string{
		"engine=serve",
		"verdict: ok",
		"net-faults=drop:0@40",
		"wal-sync=interval:4",
		"net: clients=3",
		"lost=0 duplicated=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("load -self output missing %q:\n%s", want, out)
		}
	}
	// The commit log the run wrote is clean: strict recovery accepts it and
	// continues the run.
	out = runOut(t, "recover", "-wal", wal, "-strict", "-ops", "20")
	if !strings.Contains(out, "verdict: ok") {
		t.Errorf("strict recover of a clean serve log:\n%s", out)
	}
}

func TestLoadModeErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"load"}, &buf); err == nil || !strings.Contains(err.Error(), "exactly one of -addr and -self") {
		t.Errorf("load with neither mode: %v", err)
	}
	if err := run([]string{"load", "-self", "-addr", "127.0.0.1:1"}, &buf); err == nil || !strings.Contains(err.Error(), "exactly one of -addr and -self") {
		t.Errorf("load with both modes: %v", err)
	}
	if err := run([]string{"load", "-addr", "127.0.0.1:1", "-net-faults", "flaky-net"}, &buf); err == nil || !strings.Contains(err.Error(), "-self") {
		t.Errorf("server-side flag against -addr: %v", err)
	}
}

// ----------------------------------------------------------------------------
// elin serve + elin load -addr: a real server process loop — serve in a
// goroutine, load it over loopback, interrupt the server for its report.
// The fleet's dial retry covers the startup race: clients back off and
// reconnect until the listener is up.

func TestServeThenLoadExternal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var serveOut bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-impl", "atomic-fi", "-procs", "3", "-ops", "60",
			"-addr", addr, "-duration", "30s"}, &serveOut)
	}()

	out := runOut(t, "load", "-addr", addr, "-impl", "atomic-fi", "-procs", "3", "-ops", "60", "-seed", "1")
	for _, want := range []string{"completed=180 lost=0 duplicated=0", "latency: p50="} {
		if !strings.Contains(out, want) {
			t.Errorf("load output missing %q:\n%s", want, out)
		}
	}

	// Interrupt the server: it drains, finishes the monitor, reports.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v\noutput:\n%s", err, serveOut.String())
	}
	sOut := serveOut.String()
	for _, want := range []string{"serving atomic-fi on " + addr, "verdict: ok", "events=360"} {
		if !strings.Contains(sOut, want) {
			t.Errorf("serve report missing %q:\n%s", want, sOut)
		}
	}
}

// ----------------------------------------------------------------------------
// elin recover -strict: a torn log is a non-zero exit naming the offset.

func TestRecoverStrictTorn(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "torn.wal")
	runOut(t, "stress", "-impl", "atomic-fi", "-procs", "2", "-ops", "50", "-serial", "-wal", wal, "-quiet")

	var buf bytes.Buffer
	err := run([]string{"recover", "-wal", wal, "-corrupt", "trunc:3", "-strict"}, &buf)
	if err == nil {
		t.Fatalf("strict recovery accepted a torn log:\n%s", buf.String())
	}
	// 2 x 50 operations are 200 frames; three bytes off the end tear the last.
	msg := regexp.MustCompile(`^recover: log ` + regexp.QuoteMeta(wal) +
		` is torn at byte \d+ \(199 intact frames\); rerun without -strict to truncate and continue$`)
	if !msg.MatchString(err.Error()) {
		t.Errorf("strict error does not name the tear: %v", err)
	}
	// The header probe reads a torn log, and says what was corrupted.
	if want := "(trunc:3) — log of atomic-fi, 2 procs x 50 ops, seed 1\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("output missing %q:\n%s", want, buf.String())
	}
	// Without -strict the same log recovers by truncation.
	out := runOut(t, "recover", "-wal", wal, "-ops", "20")
	if !strings.Contains(out, "verdict: ok") {
		t.Errorf("permissive recovery of the torn log:\n%s", out)
	}
}

func TestListNetFaults(t *testing.T) {
	out := runOut(t, "list", "-section", "net-faults")
	for _, want := range []string{"none", "flaky-net", "partition-heal", "drop:C@T"} {
		if !strings.Contains(out, want) {
			t.Errorf("net-faults section missing %q:\n%s", want, out)
		}
	}
}
