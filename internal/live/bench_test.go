package live

import (
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/spec"
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
	benchRun(b, func() Object {
		s, err := NewSerialized("C", spec.NewObject(spec.FetchInc{}), 1)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}, 4, false)
}

func BenchmarkLiveSerializedFIMonitored(b *testing.B) {
	benchRun(b, func() Object {
		s, err := NewSerialized("C", spec.NewObject(spec.FetchInc{}), 1)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}, 4, true)
}
