package elin

// The design-choice ablations and the micro-benchmarks of the decision
// procedures. A full regeneration of an experiment table of EXPERIMENTS.md
// is timed by `go run ./cmd/elin bench -run <id> -json`; `go run ./cmd/elin
// bench` shows the tables themselves.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/gen"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// ----------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md).

// Ablation 1: failure memoization in the generic engine. The engine
// explores orderings of overlapping operations; without the (mask, state)
// failure table the search revisits exponentially many equivalent suffixes.
func BenchmarkAblationMemoOn(b *testing.B) {
	objs, h := ablationHistory()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := check.Linearizable(objs, h, check.Options{NoFastPath: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMemoOff(b *testing.B) {
	objs, h := ablationHistory()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := check.Options{NoFastPath: true, NoMemo: true, Budget: 1 << 28}
		if _, err := check.Linearizable(objs, h, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func ablationHistory() (map[string]spec.Object, *history.History) {
	// A highly concurrent, UNSATISFIABLE register history: 8 overlapping
	// writes of distinct values plus a read of a never-written value.
	// Deciding it requires exhausting the orderings of the writes — 8!
	// paths without memoization, ~2^8 distinct (mask, state) pairs with it.
	// (Fetch&inc would not do here: its per-state response uniqueness
	// collapses the search regardless.)
	h := history.New()
	const n = 8
	for p := 0; p < n; p++ {
		if err := h.Invoke(p, "X", spec.MakeOp1(spec.MethodWrite, int64(p+1))); err != nil {
			panic(err)
		}
	}
	if err := h.Invoke(n, "X", spec.MakeOp(spec.MethodRead)); err != nil {
		panic(err)
	}
	if err := h.Respond(n, 99); err != nil {
		panic(err)
	}
	for p := 0; p < n; p++ {
		if err := h.Respond(p, 0); err != nil {
			panic(err)
		}
	}
	return map[string]spec.Object{"X": spec.NewObject(spec.Register{})}, h
}

// Ablation 2: MinT by binary search (Lemma 5) vs linear scan.
func BenchmarkAblationMinTBinary(b *testing.B) {
	obj := spec.NewObject(spec.FetchInc{})
	h := sloppyHistory(48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := check.MinT(obj, h, check.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMinTLinear(b *testing.B) {
	obj := spec.NewObject(spec.FetchInc{})
	h := sloppyHistory(48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		found := false
		for t := 0; t <= h.Len() && !found; t++ {
			ok, err := check.TLinearizable(obj, h, t, check.Options{})
			if err != nil {
				b.Fatal(err)
			}
			found = ok
		}
		if !found {
			b.Fatal("no t found")
		}
	}
}

func sloppyHistory(nops int) *history.History {
	h := history.New()
	for i := 0; i < nops; i++ {
		if err := h.Call(i%2, "X", spec.MakeOp(spec.MethodFetchInc), int64(i/2)); err != nil {
			panic(err)
		}
	}
	return h
}

// Ablation 3: the Lemma 17 fast path vs the generic engine at the largest
// size the generic engine can handle.
func BenchmarkAblationFastPathOn(b *testing.B) {
	obj := spec.NewObject(spec.FetchInc{})
	h := atomicCounterHistory(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := check.TLinearizable(obj, h, 8, check.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFastPathOff(b *testing.B) {
	obj := spec.NewObject(spec.FetchInc{})
	h := atomicCounterHistory(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := check.TLinearizable(obj, h, 8, check.Options{NoFastPath: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------------------------------
// Micro-benchmarks: decision procedures.

func atomicCounterHistory(nops int) *history.History {
	h := history.New()
	for i := 0; i < nops; i++ {
		if err := h.Call(i%2, "X", spec.MakeOp(spec.MethodFetchInc), int64(i)); err != nil {
			panic(err)
		}
	}
	return h
}

func BenchmarkFetchIncFastPath64(b *testing.B) {
	obj := spec.NewObject(spec.FetchInc{})
	h := atomicCounterHistory(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := check.TLinearizable(obj, h, 0, check.Options{})
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkFetchIncGeneric16(b *testing.B) {
	obj := spec.NewObject(spec.FetchInc{})
	h := atomicCounterHistory(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := check.TLinearizable(obj, h, 0, check.Options{NoFastPath: true})
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkMinTBinarySearch256(b *testing.B) {
	obj := spec.NewObject(spec.FetchInc{})
	h := atomicCounterHistory(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := check.MinT(obj, h, check.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegisterLinearizable(b *testing.B) {
	objs := map[string]spec.Object{"X": spec.NewObject(spec.Register{})}
	r := rand.New(rand.NewSource(9))
	h := gen.Register(r, gen.HistoryConfig{Procs: 3, Ops: 10, PendingBias: 0.3})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := check.Linearizable(objs, h, check.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeakConsistencyRegister(b *testing.B) {
	objs := map[string]spec.Object{"X": spec.NewObject(spec.Register{})}
	r := rand.New(rand.NewSource(10))
	h := gen.Register(r, gen.HistoryConfig{Procs: 3, Ops: 12})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := check.WeaklyConsistent(objs, h, check.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeakResponsesELRegister(b *testing.B) {
	// The inner loop of every eventually linearizable base-object action:
	// a read after W distinct writes has W+1 candidates (rw:P writes a new
	// value every time, so W grows with the run).
	for _, writes := range []int{8, 512} {
		b.Run(fmt.Sprintf("writes=%d", writes), func(b *testing.B) {
			obj := spec.NewObject(spec.Register{})
			h := history.New()
			for i := 0; i < writes; i++ {
				if err := h.Call(i%3, "R", spec.MakeOp1(spec.MethodWrite, int64(i)), 0); err != nil {
					b.Fatal(err)
				}
			}
			if err := h.Invoke(0, "R", spec.MakeOp(spec.MethodRead)); err != nil {
				b.Fatal(err)
			}
			var tb history.OpTable
			var buf []int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb.Fill(h)
				var err error
				if buf, err = check.AppendWeakResponses(buf[:0], obj, &tb, 0, check.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ----------------------------------------------------------------------------
// Micro-benchmarks: the execution runtime.

func BenchmarkSimCASCounter(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Impl:      counter.CAS{},
			Workload:  sim.UniformWorkload(4, 8, spec.MakeOp(spec.MethodFetchInc)),
			Scheduler: sim.Random{},
			Seed:      int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSystemClone(b *testing.B) {
	sys, err := sim.NewSystem(counter.CAS{},
		sim.UniformWorkload(4, 4, spec.MakeOp(spec.MethodFetchInc)), nil, check.Options{}, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := sys.Advance(i%4, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sys.Clone() == nil {
			b.Fatal("nil clone")
		}
	}
}
