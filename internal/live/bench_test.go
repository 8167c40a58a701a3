package live

import (
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
	"github.com/elin-go/elin/internal/wal"
)

// benchRun drives one live run sized by b.N and reports achieved
// throughput. The monitored variants measure the full pipeline (recording,
// merging, windowed checking), the recording-only variants the hot path.
func benchRun(b *testing.B, mk func() Object, clients int, monitor bool) {
	b.Helper()
	ops := b.N/clients + 1
	cfg := Config{
		Object:      mk(),
		Clients:     clients,
		Ops:         ops,
		Seed:        1,
		MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
	}
	if monitor {
		cfg.MonitorSpec = check.MonitorSpec{}
		cfg.Monitor = check.IncrementalConfig{Stride: 4096}
	}
	b.ResetTimer()
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if res.Violation != nil {
		b.Fatalf("benchmark run flagged: %v", res.Violation)
	}
	b.ReportMetric(res.Throughput, "ops/s")
	b.ReportMetric(float64(res.LatP99), "p99-ns")
}

func BenchmarkLiveAtomicFIRecord(b *testing.B) {
	benchRun(b, func() Object { return NewAtomicFetchInc("C", 0) }, 4, false)
}

func BenchmarkLiveAtomicFIMonitored(b *testing.B) {
	benchRun(b, func() Object { return NewAtomicFetchInc("C", 0) }, 4, true)
}

func BenchmarkLiveSerializedFIRecord(b *testing.B) {
	benchRun(b, func() Object { return newPassthrough(b, "C", spec.NewObject(spec.FetchInc{}), nil, 4, 1) }, 4, false)
}

func BenchmarkLiveSerializedFIMonitored(b *testing.B) {
	benchRun(b, func() Object { return newPassthrough(b, "C", spec.NewObject(spec.FetchInc{}), nil, 4, 1) }, 4, true)
}

// BenchmarkMergerDrain prices the merge alone: two shards pre-filled the
// way two clients taking turns fill them, drained by one call into a
// reserved history. feed=nil is the drain Merger.Run makes (the pipeline
// reads the history afterwards); feed=noop also builds the history.Event a
// per-event consumer would be handed.
func BenchmarkMergerDrain(b *testing.B) {
	const n = 1 << 16 // operations a shard: 4n events a drain
	op := spec.MakeOp(spec.MethodFetchInc)
	for _, bc := range []struct {
		name string
		feed func(history.Event, uint64) error
	}{
		{"feed=nil", nil},
		{"feed=noop", func(history.Event, uint64) error { return nil }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := history.New()
			h.Reserve(4 * n)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				shards := []*Shard{NewShard(2 * n), NewShard(2 * n)}
				for i, ticket := 0, uint64(0); i < n; i++ {
					for _, sh := range shards {
						sh.PushInvoke(ticket, op)
						sh.PushCommit(ticket+1, int64(ticket), op)
						ticket++
					}
				}
				for _, sh := range shards {
					sh.Finish()
				}
				h.Truncate(0)
				m := NewMerger("C", 0, shards)
				b.StartTimer()
				if moved, err := m.Drain(h, bc.feed); err != nil || moved != 4*n {
					b.Fatalf("drained %d of %d events: %v", moved, 4*n, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*n*b.N), "ns/event")
		})
	}
}

// BenchmarkRecoverResume prices recovery: wal.Recover and Resume of the log
// of a serial run of 1M fetch&inc operations, ns per event of the log.
func BenchmarkRecoverResume(b *testing.B) {
	const ops = 1 << 20
	path := serialLog(b, ops/2)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		rec, err := wal.Recover(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Resume(NewAtomicFetchInc("C", 0), rec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*ops*b.N), "ns/event")
}
