package history

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/elin-go/elin/internal/spec"
)

// model is the history as a plain event slice under the rules Append applied
// before events were stored as records: the oracle every derived view of a
// History is compared with.
type model []Event

// pending returns the index of proc's pending invocation, or -1.
func (m model) pending(proc int) int {
	for i := len(m) - 1; i >= 0; i-- {
		if m[i].Proc == proc {
			if m[i].Kind == KindInvoke {
				return i
			}
			return -1
		}
	}
	return -1
}

// accepts is the well-formedness rule.
func (m model) accepts(e Event) bool {
	idx := m.pending(e.Proc)
	switch e.Kind {
	case KindInvoke:
		return idx < 0
	case KindRespond:
		return idx >= 0 && m[idx].Obj == e.Obj
	}
	return false
}

func (m model) operations() []Operation {
	ops := make([]Operation, 0)
	open := map[int]int{}
	for i, e := range m {
		if e.Kind == KindInvoke {
			open[e.Proc] = len(ops)
			ops = append(ops, Operation{Proc: e.Proc, Obj: e.Obj, Op: e.Op, Inv: i, Res: -1})
		} else {
			ops[open[e.Proc]].Res, ops[open[e.Proc]].Resp = i, e.Resp
		}
	}
	return ops
}

func (m model) fingerprint() []byte {
	var b []byte
	for _, e := range m {
		b = append(b, byte(e.Kind))
		b = spec.AppendFPInt(b, int64(e.Proc))
		b = spec.AppendFPInt(b, int64(len(e.Obj)))
		b = append(b, e.Obj...)
		if e.Kind == KindInvoke {
			b = spec.AppendFPInt(b, int64(len(e.Op.Method)))
			b = append(b, e.Op.Method...)
			b = append(b, byte(e.Op.NArgs))
			for i := 0; i < e.Op.NArgs; i++ {
				b = spec.AppendFPInt(b, e.Op.Args[i])
			}
		} else {
			b = spec.AppendFPInt(b, e.Resp)
		}
	}
	return b
}

func (m model) text() string {
	var b strings.Builder
	for _, e := range m {
		b.WriteString(e.String() + "\n")
	}
	return b.String()
}

func (m model) json(t *testing.T) []byte {
	out := make([]jsonEvent, 0, len(m))
	for _, e := range m {
		je := jsonEvent{Kind: e.Kind.String(), Proc: e.Proc, Obj: e.Obj}
		if e.Kind == KindInvoke {
			je.Op = e.Op.String()
		} else {
			je.Resp = e.Resp
		}
		out = append(out, je)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (m model) filter(keep func(Event) bool) model {
	out := model{}
	for _, e := range m {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// sameAsModel compares every view of h with the model's.
func sameAsModel(t *testing.T, what string, h *History, m model) {
	t.Helper()
	if h.Len() != len(m) {
		t.Fatalf("%s: Len %d, model %d", what, h.Len(), len(m))
	}
	for i, e := range m {
		if got := h.Event(i); got != e {
			t.Fatalf("%s: Event(%d) = %+v, model %+v", what, i, got, e)
		}
	}
	if got := h.Events(); !reflect.DeepEqual(got, []Event(m)) && len(m) > 0 {
		t.Fatalf("%s: Events() = %v, model %v", what, got, m)
	}
	ops := m.operations()
	if got := h.Operations(); !reflect.DeepEqual(got, ops) {
		t.Fatalf("%s: Operations() = %v, model %v", what, got, ops)
	}
	for _, o := range ops {
		for _, i := range []int{o.Inv, o.Res} {
			if i >= 0 && h.Op(i) != o.Op {
				t.Fatalf("%s: Op(%d) = %v, model %v", what, i, h.Op(i), o.Op)
			}
		}
	}
	var tab OpTable
	tab.Fill(h)
	if !reflect.DeepEqual(tab.Ops, ops) || tab.Events != len(m) {
		t.Fatalf("%s: OpTable.Fill = %v (%d events), model %v", what, tab.Ops, tab.Events, ops)
	}
	last := -1
	for _, j := range tab.ByRes {
		if ops[j].Res <= last {
			t.Fatalf("%s: ByRes %v is not in response order", what, tab.ByRes)
		}
		last = ops[j].Res
	}
	if got, want := h.AppendFingerprint(nil), m.fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("%s: fingerprint %x, model %x", what, got, want)
	}
	var text bytes.Buffer
	if err := h.WriteText(&text); err != nil || text.String() != m.text() {
		t.Fatalf("%s: WriteText %q (err %v), model %q", what, text.String(), err, m.text())
	}
	if got, err := h.MarshalJSON(); err != nil || !bytes.Equal(got, m.json(t)) {
		t.Fatalf("%s: MarshalJSON %s (err %v), model %s", what, got, err, m.json(t))
	}
}

// modelProcs straddle the dense/map boundary of the pending table.
var modelProcs = []int{0, 1, 2, denseProcs - 1, denseProcs, -1, math.MinInt, math.MaxInt}

// randomEvent draws an event that is well-formed after m nine times in ten.
func randomEvent(r *rand.Rand, m model) Event {
	objs := []string{"X", "Y", "Z"}
	ops := []spec.Op{
		spec.MakeOp(spec.MethodRead), spec.MakeOp(spec.MethodFetchInc),
		spec.MakeOp1(spec.MethodWrite, r.Int63n(9)-4), spec.MakeOp2("cas", r.Int63n(3), math.MinInt64),
	}
	e := Event{Proc: modelProcs[r.Intn(len(modelProcs))]}
	idx := m.pending(e.Proc)
	respond, otherObj := idx >= 0, false
	if r.Intn(10) == 0 {
		switch r.Intn(3) {
		case 0:
			e.Kind = Kind(3 * r.Intn(2)) // 0 or 3: not a kind
			return e
		case 1:
			respond = !respond // with nothing pending, or an invocation on top of one
		default:
			otherObj = true
		}
	}
	if !respond {
		e.Kind, e.Obj, e.Op = KindInvoke, objs[r.Intn(len(objs))], ops[r.Intn(len(ops))]
		return e
	}
	e.Kind, e.Obj, e.Resp = KindRespond, objs[r.Intn(len(objs))], r.Int63n(7)-3
	if idx >= 0 {
		e.Obj = m[idx].Obj
		if otherObj {
			e.Obj += "'"
		}
	}
	return e
}

// TestStorageMatchesEventSliceModel: the same random event sequence, a tenth
// of it ill-formed, goes to a History and to the model; they agree on every
// accept/reject decision and on every view, also after a Truncate and more
// appends, and the projections agree with filtering the model.
func TestStorageMatchesEventSliceModel(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		h, m := New(), model{}
		grow := func(n int) {
			for i := 0; i < n; i++ {
				e := randomEvent(r, m)
				err := h.Append(e)
				if want := m.accepts(e); (err == nil) != want {
					t.Fatalf("trial %d: Append(%+v) after %v: err %v, model accepts=%v", trial, e, m, err, want)
				}
				if err == nil {
					m = append(m, e)
				}
			}
		}
		grow(r.Intn(60))
		sameAsModel(t, "appended", h, m)
		n := r.Intn(len(m) + 1)
		h.Truncate(n)
		m = m[:n]
		sameAsModel(t, "truncated", h, m)
		grow(r.Intn(40))
		sameAsModel(t, "re-appended", h, m)

		obj := []string{"X", "Y", "Z", "nowhere"}[r.Intn(4)]
		sameAsModel(t, "ByObject", h.ByObject(obj), m.filter(func(e Event) bool { return e.Obj == obj }))
		proc := modelProcs[r.Intn(len(modelProcs))]
		sameAsModel(t, "byProc", byProc(h, proc), m.filter(func(e Event) bool { return e.Proc == proc }))
		k := r.Intn(len(m) + 1)
		p := h.Prefix(k)
		sameAsModel(t, "Prefix", p, m[:k])
		// A projection is a history of its own: it takes the model's next
		// events exactly as the model's prefix does.
		pm := m[:k:k]
		for i := 0; i < 10; i++ {
			e := randomEvent(r, pm)
			if err := p.Append(e); (err == nil) != pm.accepts(e) {
				t.Fatalf("trial %d: prefix Append(%+v): err %v", trial, e, err)
			} else if err == nil {
				pm = append(pm, e)
			}
		}
		sameAsModel(t, "Prefix, extended", p, pm)
		h.Truncate(0)
		sameAsModel(t, "Truncate(0)", h, nil)
	}
}

// TestFormatLimits: one row per limit of the record format. The first event
// past it is refused, the history is as it was, the refused process is not
// left pending, and the next event within the limit is taken.
func TestFormatLimits(t *testing.T) {
	read := spec.MakeOp(spec.MethodRead)
	refused := func(t *testing.T, h *History, e Event, want string) {
		t.Helper()
		n, fp := h.Len(), h.AppendFingerprint(nil)
		if err := h.Append(e); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Append(%+v) = %v, want an error naming %q", e, err, want)
		}
		if h.Len() != n || !bytes.Equal(h.AppendFingerprint(nil), fp) {
			t.Fatalf("refused Append(%+v) changed the history", e)
		}
		if err := h.Call(e.Proc, "X", read, 1); err != nil {
			t.Fatalf("p%d after its refused invocation: %v", e.Proc, err)
		}
	}

	t.Run("methods", func(t *testing.T) {
		h := New()
		for i := 0; i < maxMethods-1; i++ {
			if err := h.Call(0, "X", spec.MakeOp(fmt.Sprint("m", i)), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Call(0, "X", read, 0); err != nil { // method number maxMethods
			t.Fatal(err)
		}
		refused(t, h, Event{Kind: KindInvoke, Proc: 7, Obj: "X", Op: spec.MakeOp("one-more")}, "distinct methods")
		refused(t, h, Event{Kind: KindInvoke, Proc: 7, Obj: "X", Op: spec.MakeOp("one-more")}, "distinct methods")
	})
	t.Run("objects", func(t *testing.T) {
		// Filled directly: interning maxObjs names one Append at a time is
		// quadratic in a test, and is not what the row is about.
		h := New()
		for i := 0; i < maxObjs-2; i++ {
			h.objs = append(h.objs, fmt.Sprint("o", i))
		}
		for _, obj := range []string{"last-but-one", "X"} { // X is object number maxObjs
			if err := h.Call(0, obj, read, 0); err != nil {
				t.Fatal(err)
			}
		}
		refused(t, h, Event{Kind: KindInvoke, Proc: 7, Obj: "one-more", Op: read}, "distinct objects")
		refused(t, h, Event{Kind: KindInvoke, Proc: 7, Obj: "one-more", Op: read}, "distinct objects")
		if got := h.Event(h.Len() - 1).Obj; got != "X" {
			t.Fatalf("last object decodes to %q", got)
		}
	})
	t.Run("events", func(t *testing.T) {
		defer func(old int) { maxEvents = old }(maxEvents)
		maxEvents = 4
		h := New()
		for p := 0; p < 4; p++ {
			if err := h.Invoke(p, "X", read); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Invoke(4, "X", read); err == nil || !strings.Contains(err.Error(), "full") {
			t.Fatalf("fifth event: %v", err)
		}
		if err := h.Respond(0, 1); err == nil || !strings.Contains(err.Error(), "full") {
			t.Fatalf("fifth event, by Respond: %v", err)
		}
		if err := h.Append(Event{Kind: KindRespond, Proc: 0, Obj: "X"}); err == nil || !strings.Contains(err.Error(), "full") {
			t.Fatalf("fifth event, a response: %v", err)
		}
		if h.Len() != 4 {
			t.Fatalf("Len = %d", h.Len())
		}
		h.Truncate(3)
		if err := h.Respond(0, 1); err != nil { // p0 is still pending, p4 is not
			t.Fatal(err)
		}
		h.Truncate(2)
		if err := h.Invoke(4, "X", read); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("nargs", func(t *testing.T) {
		h := New()
		for _, n := range []int{-1, 3, math.MinInt, 1 << 8} {
			op := spec.Op{Method: spec.MethodWrite, NArgs: n}
			refused(t, h, Event{Kind: KindInvoke, Proc: 7, Obj: "X", Op: op}, "arguments")
		}
	})
}

// TestAppendMatchesPrimitives runs one table of events through Append on one
// history and through Invoke/Respond on another. Both paths take and refuse
// the same events with the same error text, a refused event leaves its
// history as it was, and the two histories stay equal. A response on
// another object than its invocation's has no primitive form (Respond
// takes the object from the pending invocation), so that row goes through
// Append alone.
func TestAppendMatchesPrimitives(t *testing.T) {
	read := spec.MakeOp(spec.MethodRead)
	inv := func(p int, obj string, op spec.Op) Event { return Event{Kind: KindInvoke, Proc: p, Obj: obj, Op: op} }
	res := func(p int, obj string, v int64) Event { return Event{Kind: KindRespond, Proc: p, Obj: obj, Resp: v} }
	primitive := func(h *History, e Event) error {
		if e.Kind == KindInvoke {
			return h.Invoke(e.Proc, e.Obj, e.Op)
		}
		return h.Respond(e.Proc, e.Resp)
	}
	steps := []struct {
		e          Event
		refused    string // a word of the refusal; "" when the event is taken
		appendOnly bool
		full       bool // maxEvents is the history's length for this event
	}{
		{e: inv(0, "X", read)},
		{e: inv(0, "Y", read), refused: "pending"},
		{e: inv(1, "Y", spec.MakeOp1(spec.MethodWrite, 4))},
		{e: res(2, "X", 0), refused: "no pending"},
		{e: res(0, "Y", 3), refused: "responds on Y", appendOnly: true},
		{e: res(0, "X", 3)},
		{e: inv(2, "X", spec.Op{Method: spec.MethodWrite, NArgs: 3}), refused: "arguments"},
		{e: inv(2, "X", spec.Op{Method: spec.MethodWrite, NArgs: -1}), refused: "arguments"},
		{e: inv(2, "X", spec.MakeOp("last"))}, // method number maxMethods
		{e: inv(3, "X", spec.MakeOp("one-more")), refused: "distinct methods"},
		{e: res(1, "Y", 5), full: true, refused: "full"},
		{e: inv(3, "X", read), full: true, refused: "full"},
		{e: res(1, "Y", 5)},
		{e: res(2, "X", 6)},
		{e: inv(0, "X", read)},
	}
	// Both histories start with maxMethods-3 methods, so that read, write
	// and "last" fill the table.
	a, b := New(), New()
	for i := 0; i < maxMethods-3; i++ {
		for _, h := range []*History{a, b} {
			if err := h.Call(9, "X", spec.MakeOp(fmt.Sprint("m", i)), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	limit := maxEvents
	defer func() { maxEvents = limit }()
	for i, s := range steps {
		var errs []string
		for j, h := range []*History{a, b} {
			if j == 1 && s.appendOnly {
				continue
			}
			n, fp := h.Len(), h.AppendFingerprint(nil)
			if s.full {
				maxEvents = n
			}
			var err error
			if j == 0 {
				err = h.Append(s.e)
			} else {
				err = primitive(h, s.e)
			}
			maxEvents = limit
			switch {
			case s.refused == "" && err != nil:
				t.Fatalf("step %d, path %d: %+v refused: %v", i, j, s.e, err)
			case s.refused != "" && (err == nil || !strings.Contains(err.Error(), s.refused)):
				t.Fatalf("step %d, path %d: %+v gave %v, want a refusal naming %q", i, j, s.e, err, s.refused)
			case err != nil && (h.Len() != n || !bytes.Equal(h.AppendFingerprint(nil), fp)):
				t.Fatalf("step %d, path %d: the refused %+v changed the history", i, j, s.e)
			}
			errs = append(errs, fmt.Sprint(err))
		}
		if len(errs) == 2 && errs[0] != errs[1] {
			t.Fatalf("step %d: Append says %q, the primitive %q", i, errs[0], errs[1])
		}
		if !bytes.Equal(a.AppendFingerprint(nil), b.AppendFingerprint(nil)) {
			t.Fatalf("step %d: the histories differ", i)
		}
	}
}

// TestPendingTableBoundary: process ids on both sides of the dense/map
// boundary, negative ones included, keep their pending state in one history
// through Append, Respond and Truncate.
func TestPendingTableBoundary(t *testing.T) {
	read := spec.MakeOp(spec.MethodRead)
	h := New()
	for _, p := range modelProcs {
		if err := h.Invoke(p, "X", read); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range modelProcs {
		if err := h.Invoke(p, "X", read); err == nil {
			t.Fatalf("p%d invoked twice", p)
		}
		if err := h.Respond(p, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := h.Respond(p, 0); err == nil {
			t.Fatalf("p%d responded twice", p)
		}
	}
	h.Truncate(len(modelProcs)) // every response undone: all pending again
	for i := len(modelProcs) - 1; i >= 0; i-- {
		if err := h.Respond(modelProcs[i], int64(i)); err != nil {
			t.Fatalf("p%d after Truncate: %v", modelProcs[i], err)
		}
	}
	for i, op := range h.Operations() {
		if op.Proc != modelProcs[i] || op.Resp != int64(i) || op.Res != 2*len(modelProcs)-1-i {
			t.Fatalf("operation %d = %v", i, op)
		}
	}
	h.Truncate(0)
	if len(h.pending.far) != 0 {
		t.Fatalf("an empty history keeps %d map entries", len(h.pending.far))
	}
}

// TestRecordStaysCompact pins the storage cost: a string or a slice creeping
// back into the record fails the first check, a second per-event buffer the
// second.
func TestRecordStaysCompact(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size > 32 {
		t.Fatalf("record is %d bytes, want at most 32", size)
	}
	const n = 1 << 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := New()
	h.Reserve(n)
	for i := 0; i < n/2; i++ {
		if err := h.Call(i%7, "X", spec.MakeOp1(spec.MethodWrite, int64(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 32*n+1024 {
		t.Fatalf("Reserve(%d) and %d appends allocated %d bytes, want at most %d", n, h.Len(), got, 32*n+1024)
	}
}

// TestOperationsIgnoreProcessIDMagnitude: the operation table used to be
// indexed by process id, so proc -1 (JSON) panicked and p4000000000 (text)
// grew it until the process died.
func TestOperationsIgnoreProcessIDMagnitude(t *testing.T) {
	var fromJSON History
	if err := fromJSON.UnmarshalJSON([]byte(`[{"kind":"inv","proc":-1,"obj":"X","op":"read"},{"kind":"res","proc":-1,"obj":"X","resp":0}]`)); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadText(strings.NewReader("inv p4000000000 X read\nres p4000000000 X 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*History{&fromJSON, fromText} {
		proc := h.Event(0).Proc
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ops := h.Operations()
		var tab OpTable
		tab.Fill(h)
		runtime.ReadMemStats(&after)
		want := []Operation{{Proc: proc, Obj: "X", Op: spec.MakeOp(spec.MethodRead), Inv: 0, Res: 1}}
		if !reflect.DeepEqual(ops, want) || !reflect.DeepEqual(tab.Ops, want) || !reflect.DeepEqual(tab.ByRes, []int{0}) {
			t.Fatalf("p%d: Operations %v, table %v %v", proc, ops, tab.Ops, tab.ByRes)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
			t.Fatalf("p%d: the operations of a two-event history allocated %d bytes", proc, got)
		}
	}
}
