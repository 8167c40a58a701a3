package history

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/spec"
)

func mustInvoke(t *testing.T, h *History, p int, obj string, op spec.Op) {
	t.Helper()
	if err := h.Invoke(p, obj, op); err != nil {
		t.Fatal(err)
	}
}

func mustRespond(t *testing.T, h *History, p int, resp int64) {
	t.Helper()
	if err := h.Respond(p, resp); err != nil {
		t.Fatal(err)
	}
}

func TestWellFormedness(t *testing.T) {
	h := New()
	mustInvoke(t, h, 0, "X", spec.MakeOp("fetchinc"))
	// Second invocation by same process while pending must fail.
	if err := h.Invoke(0, "X", spec.MakeOp("fetchinc")); err == nil {
		t.Error("double invocation accepted")
	}
	// Response by a process with no pending invocation must fail.
	if err := h.Respond(1, 0); err == nil {
		t.Error("unmatched response accepted")
	}
	// Response on a mismatched object must fail.
	if err := h.Append(Event{Kind: KindRespond, Proc: 0, Obj: "Y", Resp: 0}); err == nil {
		t.Error("response on wrong object accepted")
	}
	mustRespond(t, h, 0, 0)
	if h.Len() != 2 {
		t.Fatalf("len = %d, want 2", h.Len())
	}
	// Invalid kind must fail.
	if err := h.Append(Event{Kind: 0, Proc: 0, Obj: "X"}); err == nil {
		t.Error("zero-kind event accepted")
	}
}

func TestOperations(t *testing.T) {
	h := New()
	mustInvoke(t, h, 0, "X", spec.MakeOp("fetchinc"))
	mustInvoke(t, h, 1, "X", spec.MakeOp("fetchinc"))
	mustRespond(t, h, 1, 0)
	mustRespond(t, h, 0, 1)
	mustInvoke(t, h, 1, "Y", spec.MakeOp1("write", 5))

	ops := h.Operations()
	if len(ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(ops))
	}
	if ops[0].Proc != 0 || ops[0].Inv != 0 || ops[0].Res != 3 || ops[0].Resp != 1 {
		t.Errorf("op0 = %+v", ops[0])
	}
	if ops[1].Proc != 1 || ops[1].Inv != 1 || ops[1].Res != 2 || ops[1].Resp != 0 {
		t.Errorf("op1 = %+v", ops[1])
	}
	if !ops[2].Pending() || ops[2].Obj != "Y" {
		t.Errorf("op2 = %+v", ops[2])
	}
	// String forms are exercised for coverage of diagnostics.
	if !strings.Contains(ops[2].String(), "?") {
		t.Errorf("pending op string = %q", ops[2].String())
	}
	if !strings.Contains(ops[0].String(), "-> 1") {
		t.Errorf("completed op string = %q", ops[0].String())
	}
}

func TestProjections(t *testing.T) {
	h := New()
	mustInvoke(t, h, 0, "X", spec.MakeOp("fetchinc"))
	mustRespond(t, h, 0, 0)
	mustInvoke(t, h, 0, "Y", spec.MakeOp("read"))
	mustInvoke(t, h, 1, "X", spec.MakeOp("fetchinc"))
	mustRespond(t, h, 1, 1)
	mustRespond(t, h, 0, 7)

	hx := h.ByObject("X")
	if hx.Len() != 4 {
		t.Fatalf("H|X len = %d, want 4", hx.Len())
	}
	for i := 0; i < hx.Len(); i++ {
		if hx.Event(i).Obj != "X" {
			t.Fatalf("H|X event %d on %s", i, hx.Event(i).Obj)
		}
	}
	hp := byProc(h, 0)
	if hp.Len() != 4 {
		t.Fatalf("H|p0 len = %d, want 4", hp.Len())
	}
	if !hp.Sequential() {
		t.Error("per-process projection must be sequential")
	}

	idx := h.ObjectEventIndex("X")
	want := []int{0, 1, 3, 4}
	if len(idx) != len(want) {
		t.Fatalf("ObjectEventIndex = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("ObjectEventIndex = %v, want %v", idx, want)
		}
	}

	objs := h.Objects()
	if len(objs) != 2 || objs[0] != "X" || objs[1] != "Y" {
		t.Errorf("Objects = %v", objs)
	}
	procs := h.Procs()
	if len(procs) != 2 || procs[0] != 0 || procs[1] != 1 {
		t.Errorf("Procs = %v", procs)
	}
}

func TestSequential(t *testing.T) {
	h := New()
	if !h.Sequential() {
		t.Error("empty history should be sequential")
	}
	if err := h.Call(0, "X", spec.MakeOp("read"), 5); err != nil {
		t.Fatal(err)
	}
	if err := h.Call(1, "X", spec.MakeOp1("write", 3), 0); err != nil {
		t.Fatal(err)
	}
	if !h.Sequential() {
		t.Error("call-built history should be sequential")
	}
	mustInvoke(t, h, 0, "X", spec.MakeOp("read"))
	if !h.Sequential() {
		t.Error("trailing pending invocation is allowed in a sequential history")
	}

	conc := New()
	mustInvoke(t, conc, 0, "X", spec.MakeOp("read"))
	mustInvoke(t, conc, 1, "X", spec.MakeOp("read"))
	if conc.Sequential() {
		t.Error("overlapping operations should not be sequential")
	}
}

func TestPrefixAndClone(t *testing.T) {
	h := New()
	mustInvoke(t, h, 0, "X", spec.MakeOp("fetchinc"))
	mustInvoke(t, h, 1, "X", spec.MakeOp("fetchinc"))
	mustRespond(t, h, 0, 0)
	mustRespond(t, h, 1, 1)

	p := h.Prefix(2)
	if p.Len() != 2 {
		t.Fatalf("prefix len = %d", p.Len())
	}
	// Prefix must be usable: pending invocations remain open.
	if err := p.Respond(0, 9); err != nil {
		t.Fatalf("prefix should accept response to pending op: %v", err)
	}
	// Out-of-range prefixes clamp.
	if h.Prefix(100).Len() != 4 || h.Prefix(-1).Len() != 0 {
		t.Error("prefix clamping failed")
	}

	c := h.Clone()
	if c.Len() != h.Len() {
		t.Fatal("clone length mismatch")
	}
	mustInvoke(t, c, 0, "X", spec.MakeOp("fetchinc"))
	if h.Len() == c.Len() {
		t.Error("clone shares state with original")
	}
}

func TestPrefixClosureProperty(t *testing.T) {
	// Lemma 6 groundwork: every prefix of a well-formed history is
	// well-formed (FromEvents accepts it).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHistory(r, 3, 10)
		for k := 0; k <= h.Len(); k++ {
			if _, err := FromEvents(h.Prefix(k).Events()); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestProjectionPartitionProperty(t *testing.T) {
	// The per-object projections partition the events of H.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHistory(r, 3, 12)
		total := 0
		for _, obj := range h.Objects() {
			total += h.ByObject(obj).Len()
		}
		return total == h.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomHistory builds a random well-formed history over nproc processes and
// objects {X, Y}.
func randomHistory(r *rand.Rand, nproc, maxOps int) *History {
	h := New()
	pending := make([]bool, nproc)
	objs := []string{"X", "Y"}
	nops := r.Intn(maxOps + 1)
	invoked := 0
	for steps := 0; steps < 4*maxOps; steps++ {
		p := r.Intn(nproc)
		if pending[p] {
			if err := h.Respond(p, int64(r.Intn(5))); err != nil {
				panic(err)
			}
			pending[p] = false
		} else if invoked < nops {
			obj := objs[r.Intn(len(objs))]
			if err := h.Invoke(p, obj, spec.MakeOp("fetchinc")); err != nil {
				panic(err)
			}
			pending[p] = true
			invoked++
		}
	}
	return h
}

func TestJSONRoundTrip(t *testing.T) {
	h := New()
	mustInvoke(t, h, 0, "X", spec.MakeOp("fetchinc"))
	mustInvoke(t, h, 1, "Y", spec.MakeOp2("cas", 0, 1))
	mustRespond(t, h, 0, 3)
	mustRespond(t, h, 1, 1)

	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back History
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != h.Len() {
		t.Fatalf("round trip length %d != %d", back.Len(), h.Len())
	}
	for i := 0; i < h.Len(); i++ {
		if back.Event(i) != h.Event(i) {
			t.Fatalf("event %d: %+v != %+v", i, back.Event(i), h.Event(i))
		}
	}
}

func TestJSONRejectsMalformed(t *testing.T) {
	cases := []string{
		`[{"kind":"res","proc":0,"obj":"X","resp":1}]`,    // response first
		`[{"kind":"zap","proc":0,"obj":"X"}]`,             // unknown kind
		`[{"kind":"inv","proc":0,"obj":"X","op":"bad("}]`, // bad op
		`{"kind":"inv"}`, // not an array
	}
	for _, c := range cases {
		var h History
		if err := json.Unmarshal([]byte(c), &h); err == nil {
			t.Errorf("unmarshal accepted %s", c)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	h := New()
	mustInvoke(t, h, 0, "X", spec.MakeOp("fetchinc"))
	mustInvoke(t, h, 12, "reg1", spec.MakeOp1("write", -7))
	mustRespond(t, h, 0, 0)
	mustRespond(t, h, 12, 0)

	var buf bytes.Buffer
	if err := h.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != h.Len() {
		t.Fatalf("round trip length %d != %d", back.Len(), h.Len())
	}
	for i := 0; i < h.Len(); i++ {
		if back.Event(i) != h.Event(i) {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestReadTextCommentsAndErrors(t *testing.T) {
	good := "# a comment\n\ninv p0 X read\nres p0 X 5\n"
	h, err := ReadText(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 {
		t.Fatalf("len = %d, want 2", h.Len())
	}

	bad := []string{
		"inv p0 X",            // too few fields
		"zap p0 X read",       // bad kind
		"inv q0 X read",       // bad proc prefix
		"inv p-1 X read",      // negative proc
		"inv p0 X bad(",       // bad op
		"res p0 X notanumber", // bad response
		"res p0 X 1",          // response with no pending op
	}
	for _, line := range bad {
		if _, err := ReadText(strings.NewReader(line)); err == nil {
			t.Errorf("ReadText accepted %q", line)
		}
	}
}

func TestHistoryString(t *testing.T) {
	h := New()
	mustInvoke(t, h, 0, "X", spec.MakeOp("read"))
	mustRespond(t, h, 0, 4)
	s := h.String()
	if !strings.Contains(s, "inv p0 X read") || !strings.Contains(s, "res p0 X 4") {
		t.Errorf("String() = %q", s)
	}
}

func TestKindString(t *testing.T) {
	if KindInvoke.String() != "inv" || KindRespond.String() != "res" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Errorf("unknown kind string = %q", Kind(9).String())
	}
}

// byProc returns the projection H|proc as a new history.
func byProc(h *History, proc int) *History {
	return h.project(len(h.recs), func(r *record) bool { return r.proc == proc })
}
