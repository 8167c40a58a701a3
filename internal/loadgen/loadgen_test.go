package loadgen

import (
	"fmt"
	"net"
	"testing"
	"testing/quick"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/faults"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/server"
)

// Same seed, same client, same attempt: the identical delay — the whole
// reconnect schedule is reproducible from the seed.
func TestBackoffDeterministic(t *testing.T) {
	base, cap := 200*time.Microsecond, 50*time.Millisecond
	for seed := int64(1); seed <= 3; seed++ {
		for client := 0; client < 4; client++ {
			var first []time.Duration
			for attempt := 0; attempt < 12; attempt++ {
				first = append(first, Backoff(seed, client, attempt, base, cap))
			}
			for attempt := 0; attempt < 12; attempt++ {
				if again := Backoff(seed, client, attempt, base, cap); again != first[attempt] {
					t.Fatalf("seed %d client %d attempt %d: %v then %v",
						seed, client, attempt, first[attempt], again)
				}
			}
		}
	}
}

func TestBackoffShape(t *testing.T) {
	base, cap := 200*time.Microsecond, 50*time.Millisecond
	for attempt := 0; attempt < 40; attempt++ {
		d := Backoff(1, 0, attempt, base, cap)
		if d < 0 || d > cap+base {
			t.Fatalf("attempt %d: delay %v outside (0, cap+base]", attempt, d)
		}
	}
	// Different clients get different jitter (with overwhelming likelihood
	// across 8 clients on one attempt).
	same := true
	d0 := Backoff(1, 0, 3, base, cap)
	for c := 1; c < 8; c++ {
		if Backoff(1, c, 3, base, cap) != d0 {
			same = false
		}
	}
	if same {
		t.Fatal("jitter identical across clients — not actually jittered")
	}
}

// A fleet at the default sampling stride still reports latencies.
func TestRunDefaultLatencySample(t *testing.T) {
	const clients, ops = 2, 3000
	srv, err := server.New(server.Config{
		Object:      live.NewAtomicFetchInc("C", 0),
		Clients:     clients,
		MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	res, err := Run(Config{
		Addr: ln.Addr().String(), Clients: clients, Ops: ops,
		Gen: live.FetchIncGen(), Seed: 1,
	})
	if _, serr := srv.Shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != clients*ops {
		t.Fatalf("completed = %d, want %d", res.Completed, clients*ops)
	}
	if res.P50NS <= 0 || res.P99NS < res.P50NS {
		t.Fatalf("latency percentiles: p50=%dns p99=%dns", res.P50NS, res.P99NS)
	}
}

// The idempotent-resume property, under testing/quick: for any drop
// schedule (client, trigger ticket) and seed, a fleet driven through
// forced disconnects completes with zero lost and zero duplicated
// tickets.
func TestResumeExactlyOnceQuick(t *testing.T) {
	const clients, ops = 3, 40
	prop := func(seed int64, dropClient uint8, dropTicket uint16, secondDrop uint16) bool {
		c := int(dropClient) % clients
		// Triggers inside the run's ticket range so the drops actually
		// fire (total commits = clients*ops).
		t1 := uint64(dropTicket)%uint64(clients*ops-2) + 1
		t2 := uint64(secondDrop)%uint64(clients*ops-2) + 1
		if t1 == t2 {
			t2++
		}
		spec, err := faults.ParseNet(fmt.Sprintf("drop:%d@%d,drop:%d@%d", c, t1, (c+1)%clients, t2))
		if err != nil {
			t.Fatalf("ParseNet: %v", err)
		}
		srv, err := server.New(server.Config{
			Object:      live.NewAtomicFetchInc("C", 0),
			Clients:     clients,
			MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
			NetFaults:   spec,
		})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv.Serve(ln)
		res, err := Run(Config{
			Addr: ln.Addr().String(), Clients: clients, Ops: ops,
			Gen: live.FetchIncGen(), Seed: seed,
		})
		if err != nil {
			t.Logf("run: %v", err)
			srv.Shutdown()
			return false
		}
		sum, err := srv.Shutdown()
		if err != nil {
			t.Logf("shutdown: %v", err)
			return false
		}
		return res.Lost == 0 && res.Duplicated == 0 &&
			res.Completed == clients*ops &&
			sum.Commits == clients*ops && sum.Events == 2*clients*ops
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
