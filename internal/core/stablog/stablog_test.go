package stablog

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

// randomLog builds a random encodable log over the register ops.
func randomLog(r *rand.Rand, n int) []int64 {
	codes := make([]int64, n)
	for i := range codes {
		var op spec.Op
		switch r.Intn(3) {
		case 0:
			op = spec.MakeOp(spec.MethodRead)
		case 1:
			op = spec.MakeOp1(spec.MethodWrite, r.Int63n(16))
		default:
			op = spec.MakeOp1(spec.MethodWrite, -r.Int63n(16))
		}
		code, err := spec.EncodeOpWord(op)
		if err != nil {
			panic(err)
		}
		codes[i] = code
	}
	return codes
}

// The stabilized-prefix invariant: once a position's response is computed
// from the agreed order, appending more entries never changes it —
// reexecute over a prefix is a prefix of reexecute over the full log.
func TestReexecutePrefixStable(t *testing.T) {
	obj := spec.NewObject(spec.Register{})
	f := func(seed int64, n uint8, cut uint8) bool {
		r := rand.New(rand.NewSource(seed))
		codes := randomLog(r, int(n%32)+1)
		k := int(cut) % (len(codes) + 1)
		full, err := reexecute(obj, codes)
		if err != nil {
			return false
		}
		prefix, err := reexecute(obj, codes[:k])
		if err != nil {
			return false
		}
		return reflect.DeepEqual(prefix, full[:k])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// logHarness is a sequential in-memory log the invariant tests drive
// processes against, standing in for the engines' shared OpLog base.
type logHarness struct{ log []int64 }

func (h *logHarness) invoke(t *testing.T, op spec.Op) int64 {
	t.Helper()
	switch op.Method {
	case spec.MethodAppend:
		h.log = append(h.log, op.Args[0])
		return int64(len(h.log)) - 1
	case spec.MethodRead:
		if i := op.Args[0]; i < int64(len(h.log)) {
			return h.log[i]
		}
		return spec.NoValue
	default:
		t.Fatalf("harness: unexpected base op %s", op)
		return 0
	}
}

// perform drives one operation of proc p to completion against the log and
// returns (response, catch-up?).
func perform(t *testing.T, h *logHarness, p machine.Process, op spec.Op) (int64, bool) {
	t.Helper()
	p.Begin(op)
	act := p.Step(0)
	steps := 0
	for act.Kind == machine.ActInvoke {
		if steps++; steps > 10000 {
			t.Fatal("process did not return within 10000 steps")
		}
		act = p.Step(h.invoke(t, act.Op))
	}
	return act.Ret, steps > 1 // one step = the append alone = speculative
}

// The promotion invariants, over random schedules: the stable frontier is
// monotone, and every stabilized (catch-up) response equals the pure
// re-execution of the agreed prefix at that position — so later promotions
// can never contradict it.
func TestPromotionInvariants(t *testing.T) {
	obj := spec.NewObject(spec.Register{})
	f := func(seed int64, batchRaw uint8) bool {
		batch := int64(batchRaw%5) + 1
		im, err := New("slog-test", obj, batch)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		h := &logHarness{}
		const nproc = 3
		procs := make([]machine.Process, nproc)
		for i := range procs {
			procs[i] = im.NewProcess(i, nproc)
		}
		lastFrontier := make([]int64, nproc)
		for step := 0; step < 40; step++ {
			pi := r.Intn(nproc)
			var op spec.Op
			if r.Intn(2) == 0 {
				op = spec.MakeOp(spec.MethodRead)
			} else {
				op = spec.MakeOp1(spec.MethodWrite, r.Int63n(8))
			}
			ret, caughtUp := perform(t, h, procs[pi], op)
			m := procs[pi].(*proc)
			if m.frontier < lastFrontier[pi] {
				t.Errorf("frontier of p%d decreased: %d -> %d", pi, lastFrontier[pi], m.frontier)
				return false
			}
			lastFrontier[pi] = m.frontier
			if caughtUp {
				agreed, err := reexecute(obj, h.log[:m.pos+1])
				if err != nil {
					t.Errorf("reexecute: %v", err)
					return false
				}
				if ret != agreed[m.pos] {
					t.Errorf("stabilized response of p%d at pos %d: got %d, agreed order says %d",
						pi, m.pos, ret, agreed[m.pos])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Batch 1 catches up on every operation: the construction degenerates to
// linearizability, with each response computed from the full agreed prefix.
func TestBatchOneIsSequentialReplay(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	im, err := New("slog-batch:1", obj, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := &logHarness{}
	p0 := im.NewProcess(0, 2)
	p1 := im.NewProcess(1, 2)
	for i := 0; i < 6; i++ {
		p := p0
		if i%2 == 1 {
			p = p1
		}
		ret, caughtUp := perform(t, h, p, spec.MakeOp(spec.MethodFetchInc))
		if !caughtUp {
			t.Fatalf("op %d speculated under batch 1", i)
		}
		if ret != int64(i) {
			t.Fatalf("op %d returned %d, want %d", i, ret, i)
		}
	}
}

func TestNewRejectsBadParameters(t *testing.T) {
	obj := spec.NewObject(spec.Register{})
	if _, err := New("slog", obj, 0); err == nil {
		t.Fatal("New with batch 0 did not fail")
	}
	if _, err := New("slog", spec.Object{}, 1); err == nil {
		t.Fatal("New with nil type did not fail")
	}
}

func TestValidateAndFingerprint(t *testing.T) {
	im, err := New("slog-counter", spec.NewObject(spec.FetchInc{}), DefaultBatch)
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.Validate(im, 3); err != nil {
		t.Fatal(err)
	}
	p := im.NewProcess(0, 2)
	fp, ok := p.(machine.Fingerprinter)
	if !ok {
		t.Fatal("stablog process is not a Fingerprinter")
	}
	b, ok := fp.AppendFingerprint(nil)
	if !ok || len(b) == 0 {
		t.Fatalf("AppendFingerprint: ok=%v len=%d", ok, len(b))
	}
	cl := p.CloneInto(nil).(machine.Fingerprinter)
	b2, _ := cl.AppendFingerprint(nil)
	if !reflect.DeepEqual(b, b2) {
		t.Fatal("clone fingerprint differs from original")
	}
}

// reexecute applies an encoded log prefix to the object's initial state in
// agreed order and returns every position's response — the pure function
// stabilization computes. Because the log is append-only, a position's
// response is fixed the moment it stabilizes: reexecute(obj, l[:k]) is a
// prefix of reexecute(obj, l) for every k (the testing/quick invariant).
func reexecute(obj spec.Object, codes []int64) ([]int64, error) {
	st := obj.Init
	resps := make([]int64, len(codes))
	for i, code := range codes {
		op, err := spec.DecodeOpWord(code)
		if err != nil {
			return nil, err
		}
		out, n := obj.Type.Step(st, op, 0)
		if n == 0 {
			return nil, fmt.Errorf("stablog: %s not applicable to %s state %v", op, obj.Type.Name(), st)
		}
		resps[i] = out.Resp
		st = out.Next
	}
	return resps, nil
}
