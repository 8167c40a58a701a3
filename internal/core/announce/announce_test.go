package announce

import (
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/progress"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

var fetchinc = spec.MakeOp(spec.MethodFetchInc)

func implObjs(impl interface {
	Name() string
	Spec() spec.Object
}) map[string]spec.Object {
	return map[string]spec.Object{impl.Name(): impl.Spec()}
}

func TestJunkCounterViolatesWeakConsistency(t *testing.T) {
	// Baseline: the junk counter's overshoots are out of left field.
	impl := counter.Junk{}
	sawViolation := false
	for seed := int64(0); seed < 10; seed++ {
		res, err := sim.Run(sim.Config{
			Impl:      impl,
			Workload:  sim.UniformWorkload(2, 3, fetchinc),
			Scheduler: sim.Random{},
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := check.WeaklyConsistent(implObjs(impl), res.History, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Fatal("junk counter never violated weak consistency; the demo premise is broken")
	}
}

func TestWrapperRestoresWeakConsistency(t *testing.T) {
	// Figure 1 in action: wrapping the junk counter yields weakly
	// consistent histories on every schedule tried.
	inner := counter.Junk{}
	impl := New(inner, check.Options{})
	if !strings.HasSuffix(impl.Name(), "-announced") {
		t.Errorf("name = %q", impl.Name())
	}
	for seed := int64(0); seed < 20; seed++ {
		res, err := sim.Run(sim.Config{
			Impl:      impl,
			Workload:  sim.UniformWorkload(2, 3, fetchinc),
			Scheduler: sim.Random{},
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatalf("seed %d timed out (wrapper not non-blocking?)", seed)
		}
		ok, badOp, err := check.WeaklyConsistentExplain(implObjs(impl), res.History, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("seed %d: wrapped junk violated weak consistency at %s\n%s",
				seed, badOp, res.History)
		}
	}
}

func TestWrapperPreservesGoodResponses(t *testing.T) {
	// Wrapping the honest CAS counter: the verification accepts the shared
	// responses, so the wrapper behaves linearizably too.
	inner := counter.CAS{}
	impl := New(inner, check.Options{})
	for seed := int64(0); seed < 10; seed++ {
		res, err := sim.Run(sim.Config{
			Impl:      impl,
			Workload:  sim.UniformWorkload(2, 2, fetchinc),
			Scheduler: sim.Random{},
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := check.Linearizable(implObjs(impl), res.History, check.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("seed %d: wrapped CAS counter not linearizable\n%s", seed, res.History)
		}
	}
}

func TestWrapperSoloSequence(t *testing.T) {
	// Solo, the wrapped junk counter returns a legal 0,1,2,... sequence:
	// overshoots are replaced by the private count, which solo coincides
	// with the true count.
	inner := counter.Junk{}
	impl := New(inner, check.Options{})
	res, err := sim.Run(sim.Config{
		Impl:     impl,
		Workload: [][]spec.Op{{fetchinc, fetchinc, fetchinc, fetchinc}},
		Seed:     0,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, op := range res.History.Operations() {
		if op.Resp != want {
			t.Fatalf("solo wrapped junk returned %d, want %d", op.Resp, want)
		}
		want++
	}
}

func TestWrapperPreservesProgress(t *testing.T) {
	// Proposition 11's wrapper must stay non-blocking: the announcement
	// write, the inner call, and the bounded scan add only finitely many
	// steps per operation (the scan is bounded by operations already
	// announced).
	impl := New(counter.Junk{}, check.Options{})
	rep, err := progress.Probe(impl, progress.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ObstructionFree || !rep.NonBlocking {
		t.Errorf("wrapper lost progress: %+v", rep)
	}
}

func TestWrapperBasesLayout(t *testing.T) {
	impl := New(counter.CAS{}, check.Options{})
	bases := impl.Bases()
	if len(bases) != 1+MaxProcs {
		t.Fatalf("bases = %d, want %d", len(bases), 1+MaxProcs)
	}
	if bases[0].Name != "C" {
		t.Errorf("inner base first, got %q", bases[0].Name)
	}
	for i := 1; i < len(bases); i++ {
		if bases[i].Eventually {
			t.Error("announcement arrays must be linearizable")
		}
		if bases[i].Obj.Type.Name() != "regarray" {
			t.Errorf("base %d type %s", i, bases[i].Obj.Type.Name())
		}
	}
}
