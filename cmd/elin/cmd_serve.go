package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/elin-go/elin/internal/scenario"
)

// runServe is the long-lived networked runtime: the object under test
// behind the framed-TCP server, serving `elin load` fleets (or any client
// speaking the wire protocol) until a signal arrives. The online monitor
// runs server-side and degrades to sampling under overload; the network
// fault plane (-net-faults) drops, severs and slows connections by commit
// ticket; a -wal makes the merged stream durable, so a kill -9 mid-load
// recovers with 'elin recover'. On SIGINT/SIGTERM the server drains,
// finishes the monitor and emits the unified Report.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("elin serve", flag.ContinueOnError)
	sf := addScenarioFlags(fs, "atomic-fi", 4, 10000, "window:400", 1)
	addr := fs.String("addr", "127.0.0.1:0", "TCP listen address")
	netFaults := fs.String("net-faults", "", "network fault plane: preset or grammar (see 'elin list -section net-faults')")
	pf := addPipelineFlags(fs, "wal")
	duration := fs.Duration("duration", 0, "serve for this long then shut down (0 = until SIGINT/SIGTERM)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s := sf.scenario()
	pf.apply(&s)
	s.NetFaults = *netFaults

	srv, err := scenario.BuildServer(s)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	srv.Serve(ln)
	fmt.Fprintf(out, "serving %s on %s (client ids 0..%d; interrupt for the report)\n",
		*sf.impl, ln.Addr(), *sf.procs-1)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if *duration > 0 {
		select {
		case <-sig:
		case <-time.After(*duration):
		}
	} else {
		<-sig
	}

	sum, err := srv.Shutdown()
	if err != nil {
		return err
	}
	return sf.emit(out, scenario.ServerReport(s, sum, nil))
}
