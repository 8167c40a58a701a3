package wal_test

import (
	"path/filepath"
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/wal"
)

// BenchmarkLogAppendEvents prices the write path: the 1M events of a merged
// two-client atomic-fi history logged in one drain under SyncNever, ns per
// event.
func BenchmarkLogAppendEvents(b *testing.B) {
	const events = 1 << 20
	res, err := live.Run(live.Config{
		Object: live.NewAtomicFetchInc("C", 0), Clients: 2, Ops: events / 4, Seed: 1,
		MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
	})
	if err != nil {
		b.Fatal(err)
	}
	h := res.History
	pos := make([]uint64, h.Len())
	for i := range pos {
		pos[i] = uint64(i / 2)
	}
	path := filepath.Join(b.TempDir(), "run.wal")
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		l, err := wal.Create(path, wal.Header{Object: "atomic-fi", ObjName: "C", Procs: 2}, wal.SyncNever)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.AppendEvents(h, 0, h.Len(), pos); err != nil {
			b.Fatal(err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events*b.N), "ns/event")
}
