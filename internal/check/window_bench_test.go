package check

import (
	"math/rand"
	"testing"

	"github.com/elin-go/elin/internal/gen"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// benchWindows is how many windows of events a window benchmark generates;
// a monitor that has consumed them is replaced by a new one.
const benchWindows = 256

// BenchmarkIncrementalWindow measures the full monitor per closed window:
// stride Feeds, one MinT search, one rebase fold. fi-512 is the fetch&inc
// kernel at the live runtime's stride, reg-32 the generic engine at the
// offline register workload's. The /advance legs close the same windows
// through Advance over the history, the live pipeline's path.
func BenchmarkIncrementalWindow(b *testing.B) {
	for _, bc := range []struct {
		name   string
		obj    spec.Object
		stride int
		events func(ops int) *history.History
	}{
		{"fi-512", spec.NewObject(spec.FetchInc{}), 512, func(ops int) *history.History {
			return gen.FetchInc(rand.New(rand.NewSource(1)), gen.HistoryConfig{Procs: 4, Ops: ops, PendingBias: 0.3})
		}},
		{"reg-32", spec.NewObject(spec.Register{}), 32, func(ops int) *history.History {
			return gen.Register(rand.New(rand.NewSource(1)), gen.HistoryConfig{Procs: 4, Ops: ops, PendingBias: 0.5})
		}},
	} {
		h := bc.events(benchWindows * bc.stride / 2)
		for _, advance := range []bool{false, true} {
			name := bc.name
			if advance {
				name += "/advance"
			}
			b.Run(name, func(b *testing.B) {
				events := h.Events()
				cfg := IncrementalConfig{Stride: bc.stride}
				m := NewIncremental(bc.obj, cfg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if h.Len()-m.Events() < bc.stride {
						m = NewIncremental(bc.obj, cfg)
					}
					if v, err := closeWindow(m, h, events, advance); err != nil || v != nil {
						b.Fatalf("window %d: violation %v, error %v", i, v, err)
					}
				}
			})
		}
	}
}

// closeWindow takes m through h until one more window has closed (a window
// opens with the operations pending at the cut, so it takes fewer than
// stride events): by feeding events, which are h's, one at a time, or by
// one Advance to the window's close, as a drain that reaches it does.
func closeWindow(m *Incremental, h *history.History, events []history.Event, advance bool) (*WindowViolation, error) {
	if advance {
		return m.Advance(h, m.Events()+max(1, m.cfg.stride()-m.tb.Events))
	}
	for closed := m.Checks(); m.Checks() == closed; {
		if v, err := m.Feed(events[m.Events()]); v != nil || err != nil {
			return v, err
		}
	}
	return nil, nil
}

// BenchmarkMinT measures one MinT search on a 512-event fetch&inc history:
// lin is settled by the t = 0 probe, nonlin (one response in twenty
// corrupted) pays the bisection as well.
func BenchmarkMinT(b *testing.B) {
	obj := spec.NewObject(spec.FetchInc{})
	for _, bc := range []struct {
		name    string
		corrupt float64
	}{{"lin", 0}, {"nonlin", 0.05}} {
		b.Run(bc.name, func(b *testing.B) {
			h := gen.FetchInc(rand.New(rand.NewSource(3)), gen.HistoryConfig{Procs: 4, Ops: 256, Corrupt: bc.corrupt, PendingBias: 0.3})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, ok, err := MinT(obj, h, Options{})
				if err != nil || !ok || (t > 0) != (bc.corrupt > 0) {
					b.Fatalf("MinT = %d, %v, %v", t, ok, err)
				}
			}
		})
	}
}

// TestIncrementalSteadyStateAllocs pins the full monitor at zero
// allocations per window once its buffers have grown, on both engines and
// through both Feed and Advance: the two operation tables the rows and the
// cut write and the scratch are reused — the fetch&inc kernel's buffers, and
// the generic engine's search, whose predecessor masks and memo map every
// probe resets — and a state is a value, so neither a type's Step nor the
// rebase fold allocates. The -past-255 cases hold values above the small
// integers Go boxes without allocating, so a state that boxed shows there.
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	const warm, runs = 4, 20
	for _, tc := range []struct {
		name   string
		obj    spec.Object
		stride int
		events func(ops int) *history.History
	}{
		{"fetchinc", spec.NewObject(spec.FetchInc{}), 16, func(ops int) *history.History {
			return gen.FetchInc(rand.New(rand.NewSource(2)), gen.HistoryConfig{Procs: 4, Ops: ops, PendingBias: 0.3})
		}},
		{"register", spec.NewObject(spec.Register{}), 32, func(ops int) *history.History {
			return gen.Register(rand.New(rand.NewSource(2)), gen.HistoryConfig{Procs: 4, Ops: ops, PendingBias: 0.5})
		}},
		{"fetchinc-past-255", spec.NewObject(spec.FetchInc{InitVal: 1 << 20}), 16, func(ops int) *history.History {
			return offset(gen.FetchInc(rand.New(rand.NewSource(2)), gen.HistoryConfig{Procs: 4, Ops: ops, PendingBias: 0.3}), 1<<20)
		}},
		{"register-past-255", spec.NewObject(spec.Register{InitVal: 1 << 20}), 32, func(ops int) *history.History {
			return offset(gen.Register(rand.New(rand.NewSource(2)), gen.HistoryConfig{Procs: 4, Ops: ops, PendingBias: 0.5}), 1<<20)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.events((warm + runs + 1) * tc.stride / 2)
			events := h.Events()
			for _, advance := range []bool{false, true} {
				m := NewIncremental(tc.obj, IncrementalConfig{Stride: tc.stride})
				m.samples = make([]Sample, 0, warm+runs+1)
				window := func() {
					if v, err := closeWindow(m, h, events, advance); err != nil || v != nil {
						t.Fatalf("advance %v, event %d: violation %v, error %v", advance, m.Events(), v, err)
					}
				}
				for i := 0; i < warm; i++ {
					window()
				}
				if allocs := testing.AllocsPerRun(runs, window); allocs != 0 {
					t.Errorf("advance %v: %.0f allocations per window in steady state, want 0", advance, allocs)
				}
			}
		})
	}
}

// offset returns h as run on an object that starts at off rather than 0:
// off is added to every argument and to every response but a write's
// acknowledgement.
func offset(h *history.History, off int64) *history.History {
	out := history.New()
	writing := make(map[int]bool)
	for _, e := range h.Events() {
		switch {
		case e.Kind == history.KindInvoke:
			writing[e.Proc] = e.Op.Method == spec.MethodWrite
			for i := range e.Op.NArgs {
				e.Op.Args[i] += off
			}
		case !writing[e.Proc]:
			e.Resp += off
		}
		if err := out.Append(e); err != nil {
			panic(err)
		}
	}
	return out
}
