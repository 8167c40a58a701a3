package progress

import (
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/core/elconsensus"
	"github.com/elin-go/elin/internal/core/eltestset"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

func TestCASCounterNonBlockingNotWaitFree(t *testing.T) {
	// The CAS retry loop is obstruction-free and non-blocking, but the
	// ratio adversary starves the victim forever: the classic separation.
	rep, err := Probe(counter.CAS{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ObstructionFree {
		t.Error("CAS counter should be obstruction-free")
	}
	if !rep.StarvationFound {
		t.Error("ratio adversary failed to starve the CAS counter victim")
	}
	if !rep.NonBlocking {
		t.Error("others should keep completing while the victim starves")
	}
	if rep.OthersCompleted == 0 {
		t.Error("starvation run completed nothing")
	}
	if !strings.Contains(Classify(rep), "not wait-free") {
		t.Errorf("classification = %q", Classify(rep))
	}
}

func TestSloppyCounterWaitFree(t *testing.T) {
	// The register-only counter finishes every operation in n+1 of its own
	// steps regardless of the adversary: wait-free (the property it trades
	// eventual linearizability for).
	rep, err := Probe(counter.Sloppy{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ObstructionFree {
		t.Error("sloppy counter should be obstruction-free")
	}
	if rep.StarvationFound {
		t.Error("sloppy counter starved; it is wait-free")
	}
	if rep.MaxStepsPerOp > 4 { // n+1 = 3 for 2 procs, +1 slack for rounding
		t.Errorf("steps/op = %d, want <= 4", rep.MaxStepsPerOp)
	}
	if !strings.Contains(Classify(rep), "wait-free") {
		t.Errorf("classification = %q", Classify(rep))
	}
}

func TestELConsensusWaitFree(t *testing.T) {
	// Proposition 16's algorithm is wait-free: at most 2 + n register
	// actions per propose.
	rep, err := Probe(elconsensus.Impl{}, Config{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StarvationFound || !rep.ObstructionFree {
		t.Errorf("EL consensus should be wait-free: %+v", rep)
	}
	if rep.MaxStepsPerOp > 3+2+1 {
		t.Errorf("steps/op = %d, want <= n+3", rep.MaxStepsPerOp)
	}
}

func TestELTestSetWaitFree(t *testing.T) {
	rep, err := Probe(eltestset.Local{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StarvationFound || !rep.ObstructionFree || rep.MaxStepsPerOp > 1 {
		t.Errorf("el-testset should complete in one local step: %+v", rep)
	}
}

func TestNonObstructionFreeDetected(t *testing.T) {
	rep, err := Probe(spinImpl{}, Config{SoloBound: 64, StarveSteps: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ObstructionFree {
		t.Error("spin implementation reported obstruction-free")
	}
	if !strings.Contains(Classify(rep), "no obstruction-free evidence") {
		t.Errorf("classification = %q", Classify(rep))
	}
}

// spinImpl spins on its register forever: not even obstruction-free.
type spinImpl struct{}

func (spinImpl) Name() string      { return "spin" }
func (spinImpl) Spec() spec.Object { return spec.NewObject(spec.Register{}) }
func (spinImpl) Bases() []machine.Base {
	return []machine.Base{{Name: "R", Obj: spec.NewObject(spec.Register{})}}
}
func (spinImpl) NewProcess(p, n int) machine.Process { return &spinProc{} }

type spinProc struct{}

func (s *spinProc) Begin(op spec.Op) {}
func (s *spinProc) Step(resp int64) machine.Action {
	return machine.Invoke(0, spec.MakeOp(spec.MethodRead))
}
func (s *spinProc) CloneInto(dst machine.Process) machine.Process {
	return machine.Reuse[spinProc](dst)
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.defaults()
	if c.Procs != 2 || c.OpsPerProc != 4 || c.SoloBound != 512 || c.StarveSteps != 512 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestOpFor(t *testing.T) {
	if opFor(elconsensus.Impl{}).Method != spec.MethodPropose {
		t.Error("consensus op")
	}
	if opFor(eltestset.Local{}).Method != spec.MethodTestSet {
		t.Error("testset op")
	}
	if opFor(counter.CAS{}).Method != spec.MethodFetchInc {
		t.Error("counter op")
	}
}
