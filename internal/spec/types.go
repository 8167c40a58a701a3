package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// Method-name constants shared by the concrete types. Operation "names"
// include arguments (see Op); these constants are the method components.
const (
	MethodRead     = "read"
	MethodWrite    = "write"
	MethodFetchInc = "fetchinc"
	MethodPropose  = "propose"
	MethodTestSet  = "testset"
	MethodCAS      = "cas"
	MethodWriteMax = "writemax"
	MethodEnq      = "enq"
	MethodDeq      = "deq"
	MethodAppend   = "append"
)

// EmptyDeq is the response returned by a dequeue on an empty queue. Using an
// in-band sentinel keeps the queue type total (every op applicable in every
// state), which Section 3.2 relies on: total types make every finite history
// trivially t-linearizable for t = |H|.
const EmptyDeq int64 = -1

// NoValue is the conventional "bottom" value used by consensus objects and
// the register arrays of Figure 1 (the paper's ⊥). It must lie outside the
// application value domain; all examples use non-negative proposal values.
const NoValue int64 = -1

// ----------------------------------------------------------------------------
// Read/write register.

// Register is a linearizable read/write register specification holding an
// int64. read returns the current value; write(v) returns 0 and sets it.
type Register struct {
	// InitVal is the initial register value (q0).
	InitVal int64
	// Domain restricts the values enumerated by EnumOps (not the values
	// accepted by Step). A nil Domain enumerates writes of 0 and 1.
	Domain []int64
}

var _ Type = Register{}
var _ OpEnumerator = Register{}

// Name implements Type.
func (Register) Name() string { return "register" }

// Init implements Type.
func (r Register) Init() State { return IntState(r.InitVal) }

// Deterministic implements Type.
func (Register) Deterministic() bool { return true }

// Step implements Type.
func (Register) Step(s State, op Op, _ int) (Outcome, int) {
	v, ok := s.Int()
	if !ok {
		return Outcome{}, 0
	}
	switch op.Method {
	case MethodRead:
		if op.NArgs != 0 {
			return Outcome{}, 0
		}
		return Outcome{Resp: v, Next: s}, 1
	case MethodWrite:
		if op.NArgs != 1 {
			return Outcome{}, 0
		}
		return Outcome{Resp: 0, Next: IntState(op.Args[0])}, 1
	default:
		return Outcome{}, 0
	}
}

// EnumOps implements OpEnumerator.
func (r Register) EnumOps() []Op {
	dom := r.Domain
	if dom == nil {
		dom = []int64{0, 1}
	}
	ops := make([]Op, 0, len(dom)+1)
	ops = append(ops, MakeOp(MethodRead))
	for _, v := range dom {
		ops = append(ops, MakeOp1(MethodWrite, v))
	}
	return ops
}

// ----------------------------------------------------------------------------
// Fetch&increment counter.

// FetchInc is the fetch&increment counter of Section 3.2: it stores a
// natural number and provides a single operation, fetchinc, which adds one
// to the stored value and returns the old value.
type FetchInc struct {
	// InitVal is the initial counter value.
	InitVal int64
}

var _ Type = FetchInc{}
var _ OpEnumerator = FetchInc{}

// Name implements Type.
func (FetchInc) Name() string { return "fetchinc" }

// Init implements Type.
func (f FetchInc) Init() State { return IntState(f.InitVal) }

// Deterministic implements Type.
func (FetchInc) Deterministic() bool { return true }

// Step implements Type.
func (FetchInc) Step(s State, op Op, _ int) (Outcome, int) {
	v, ok := s.Int()
	if !ok {
		return Outcome{}, 0
	}
	if op.Method != MethodFetchInc || op.NArgs != 0 {
		return Outcome{}, 0
	}
	return Outcome{Resp: v, Next: IntState(v + 1)}, 1
}

// EnumOps implements OpEnumerator.
func (FetchInc) EnumOps() []Op { return []Op{MakeOp(MethodFetchInc)} }

// ----------------------------------------------------------------------------
// Consensus.

// Consensus is the one-shot consensus object of Section 4: propose(v)
// returns the argument of the first propose operation to be linearized.
// Proposal values must be non-negative (NoValue marks "undecided").
type Consensus struct {
	// Domain restricts the proposals enumerated by EnumOps; nil means {0,1}.
	Domain []int64
}

var _ Type = Consensus{}
var _ OpEnumerator = Consensus{}

// Name implements Type.
func (Consensus) Name() string { return "consensus" }

// Init implements Type.
func (Consensus) Init() State { return IntState(NoValue) }

// Deterministic implements Type.
func (Consensus) Deterministic() bool { return true }

// Step implements Type.
func (Consensus) Step(s State, op Op, _ int) (Outcome, int) {
	decided, ok := s.Int()
	if !ok {
		return Outcome{}, 0
	}
	if op.Method != MethodPropose || op.NArgs != 1 || op.Args[0] < 0 {
		return Outcome{}, 0
	}
	if decided == NoValue {
		return Outcome{Resp: op.Args[0], Next: IntState(op.Args[0])}, 1
	}
	return Outcome{Resp: decided, Next: s}, 1
}

// EnumOps implements OpEnumerator.
func (c Consensus) EnumOps() []Op {
	dom := c.Domain
	if dom == nil {
		dom = []int64{0, 1}
	}
	ops := make([]Op, 0, len(dom))
	for _, v := range dom {
		ops = append(ops, MakeOp1(MethodPropose, v))
	}
	return ops
}

// ----------------------------------------------------------------------------
// Test&set.

// TestSet is the test&set object of Section 4: the first testset operation
// returns 0 and sets the object; all later operations return 1.
type TestSet struct{}

var _ Type = TestSet{}
var _ OpEnumerator = TestSet{}

// Name implements Type.
func (TestSet) Name() string { return "testset" }

// Init implements Type.
func (TestSet) Init() State { return IntState(0) }

// Deterministic implements Type.
func (TestSet) Deterministic() bool { return true }

// Step implements Type.
func (TestSet) Step(s State, op Op, _ int) (Outcome, int) {
	set, ok := s.Int()
	if !ok {
		return Outcome{}, 0
	}
	if op.Method != MethodTestSet || op.NArgs != 0 {
		return Outcome{}, 0
	}
	return Outcome{Resp: set, Next: IntState(1)}, 1
}

// EnumOps implements OpEnumerator.
func (TestSet) EnumOps() []Op { return []Op{MakeOp(MethodTestSet)} }

// ----------------------------------------------------------------------------
// Compare&swap.

// CAS is a compare&swap word, the hardware primitive the paper's
// introduction builds fetch&increment from. read returns the current value;
// cas(old,new) installs new and returns 1 if the value equals old, and
// otherwise returns 0 leaving the value unchanged.
type CAS struct {
	// InitVal is the initial value.
	InitVal int64
	// Domain restricts EnumOps (nil means {0,1}).
	Domain []int64
}

var _ Type = CAS{}
var _ OpEnumerator = CAS{}

// Name implements Type.
func (CAS) Name() string { return "cas" }

// Init implements Type.
func (c CAS) Init() State { return IntState(c.InitVal) }

// Deterministic implements Type.
func (CAS) Deterministic() bool { return true }

// Step implements Type.
func (CAS) Step(s State, op Op, _ int) (Outcome, int) {
	v, ok := s.Int()
	if !ok {
		return Outcome{}, 0
	}
	switch op.Method {
	case MethodRead:
		if op.NArgs != 0 {
			return Outcome{}, 0
		}
		return Outcome{Resp: v, Next: s}, 1
	case MethodCAS:
		if op.NArgs != 2 {
			return Outcome{}, 0
		}
		if v == op.Args[0] {
			return Outcome{Resp: 1, Next: IntState(op.Args[1])}, 1
		}
		return Outcome{Resp: 0, Next: s}, 1
	default:
		return Outcome{}, 0
	}
}

// EnumOps implements OpEnumerator.
func (c CAS) EnumOps() []Op {
	dom := c.Domain
	if dom == nil {
		dom = []int64{0, 1}
	}
	ops := []Op{MakeOp(MethodRead)}
	for _, a := range dom {
		for _, b := range dom {
			ops = append(ops, MakeOp2(MethodCAS, a, b))
		}
	}
	return ops
}

// ----------------------------------------------------------------------------
// Max register.

// MaxRegister stores the maximum value ever written. read returns the
// current maximum; writemax(v) returns 0 and raises the value to at least v.
type MaxRegister struct {
	// InitVal is the initial maximum.
	InitVal int64
	// Domain restricts EnumOps (nil means {0,1,2}).
	Domain []int64
}

var _ Type = MaxRegister{}
var _ OpEnumerator = MaxRegister{}

// Name implements Type.
func (MaxRegister) Name() string { return "maxregister" }

// Init implements Type.
func (m MaxRegister) Init() State { return IntState(m.InitVal) }

// Deterministic implements Type.
func (MaxRegister) Deterministic() bool { return true }

// Step implements Type.
func (MaxRegister) Step(s State, op Op, _ int) (Outcome, int) {
	v, ok := s.Int()
	if !ok {
		return Outcome{}, 0
	}
	switch op.Method {
	case MethodRead:
		if op.NArgs != 0 {
			return Outcome{}, 0
		}
		return Outcome{Resp: v, Next: s}, 1
	case MethodWriteMax:
		if op.NArgs != 1 {
			return Outcome{}, 0
		}
		next := v
		if op.Args[0] > next {
			next = op.Args[0]
		}
		return Outcome{Resp: 0, Next: IntState(next)}, 1
	default:
		return Outcome{}, 0
	}
}

// EnumOps implements OpEnumerator.
func (m MaxRegister) EnumOps() []Op {
	dom := m.Domain
	if dom == nil {
		dom = []int64{0, 1, 2}
	}
	ops := []Op{MakeOp(MethodRead)}
	for _, v := range dom {
		ops = append(ops, MakeOp1(MethodWriteMax, v))
	}
	return ops
}

// ----------------------------------------------------------------------------
// FIFO queue.

// Queue is a FIFO queue of int64 values. enq(v) returns 0; deq returns the
// oldest value, or EmptyDeq if the queue is empty. Queue states are encoded
// as comma-separated strings so that they are comparable.
type Queue struct {
	// Domain restricts EnumOps (nil means {0,1}).
	Domain []int64
}

var _ Type = Queue{}
var _ OpEnumerator = Queue{}

// Name implements Type.
func (Queue) Name() string { return "queue" }

// Init implements Type.
func (Queue) Init() State { return StringState("") }

// Deterministic implements Type.
func (Queue) Deterministic() bool { return true }

// Step implements Type.
func (Queue) Step(s State, op Op, _ int) (Outcome, int) {
	enc, ok := s.Str()
	if !ok {
		return Outcome{}, 0
	}
	switch op.Method {
	case MethodEnq:
		if op.NArgs != 1 {
			return Outcome{}, 0
		}
		next := strconv.FormatInt(op.Args[0], 10)
		if enc != "" {
			next = enc + "," + next
		}
		return Outcome{Resp: 0, Next: StringState(next)}, 1
	case MethodDeq:
		if op.NArgs != 0 {
			return Outcome{}, 0
		}
		if enc == "" {
			return Outcome{Resp: EmptyDeq, Next: s}, 1
		}
		head := enc
		rest := ""
		if i := strings.IndexByte(enc, ','); i >= 0 {
			head, rest = enc[:i], enc[i+1:]
		}
		v, err := strconv.ParseInt(head, 10, 64)
		if err != nil {
			return Outcome{}, 0
		}
		return Outcome{Resp: v, Next: StringState(rest)}, 1
	default:
		return Outcome{}, 0
	}
}

// EnumOps implements OpEnumerator.
func (q Queue) EnumOps() []Op {
	dom := q.Domain
	if dom == nil {
		dom = []int64{0, 1}
	}
	ops := []Op{MakeOp(MethodDeq)}
	for _, v := range dom {
		ops = append(ops, MakeOp1(MethodEnq, v))
	}
	return ops
}

// ----------------------------------------------------------------------------
// Append-only operation log.

// OpLog is a linearizable append-only log of non-negative int64 entries —
// the shared base object of the stabilizing-log construction
// (internal/core/stablog, after arXiv 1512.08258). append(v) adds an entry
// and returns its position; read(i) returns the entry at position i, or
// NoValue when i is past the end. Entries must be non-negative so the
// NoValue sentinel stays out of band. States are encoded as comma-separated
// strings, like Queue, so that they are comparable.
type OpLog struct{}

var _ Type = OpLog{}
var _ OpEnumerator = OpLog{}

// Name implements Type.
func (OpLog) Name() string { return "oplog" }

// Init implements Type.
func (OpLog) Init() State { return StringState("") }

// Deterministic implements Type.
func (OpLog) Deterministic() bool { return true }

// Step implements Type.
func (OpLog) Step(s State, op Op, _ int) (Outcome, int) {
	enc, ok := s.Str()
	if !ok {
		return Outcome{}, 0
	}
	switch op.Method {
	case MethodAppend:
		if op.NArgs != 1 || op.Args[0] < 0 {
			return Outcome{}, 0
		}
		entry := strconv.FormatInt(op.Args[0], 10)
		if enc == "" {
			return Outcome{Resp: 0, Next: StringState(entry)}, 1
		}
		return Outcome{Resp: int64(strings.Count(enc, ",")) + 1, Next: StringState(enc + "," + entry)}, 1
	case MethodRead:
		if op.NArgs != 1 || op.Args[0] < 0 {
			return Outcome{}, 0
		}
		if enc == "" {
			return Outcome{Resp: NoValue, Next: s}, 1
		}
		rest := enc
		for i := int64(0); ; i++ {
			head := rest
			if j := strings.IndexByte(rest, ','); j >= 0 {
				head, rest = rest[:j], rest[j+1:]
			} else {
				rest = ""
			}
			if i == op.Args[0] {
				v, err := strconv.ParseInt(head, 10, 64)
				if err != nil {
					return Outcome{}, 0
				}
				return Outcome{Resp: v, Next: s}, 1
			}
			if rest == "" {
				return Outcome{Resp: NoValue, Next: s}, 1
			}
		}
	default:
		return Outcome{}, 0
	}
}

// EnumOps implements OpEnumerator.
func (OpLog) EnumOps() []Op {
	return []Op{MakeOp1(MethodAppend, 0), MakeOp1(MethodAppend, 1), MakeOp1(MethodRead, 0)}
}

// ----------------------------------------------------------------------------
// Register array (the unbounded single-writer register families of Figure 1
// and Proposition 16, modelled as one indexed object).

// RegisterArray is an indexed family of registers exposed as a single
// object with operations read(i) and write(i,v). Each operation touches one
// cell, so a linearizable RegisterArray is equivalent to a family of
// linearizable registers; it stands in for the unbounded register arrays
// R_i[0,1,2,...] of Figure 1. Cells start at InitVal. States are encoded as
// "i:v" pairs joined by ';' in ascending index order.
type RegisterArray struct {
	// InitVal is the initial value of every cell (the paper's ⊥ for
	// announcement arrays; use NoValue).
	InitVal int64
}

var _ Type = RegisterArray{}

// Name implements Type.
func (RegisterArray) Name() string { return "regarray" }

// Init implements Type.
func (RegisterArray) Init() State { return StringState("") }

// Deterministic implements Type.
func (RegisterArray) Deterministic() bool { return true }

// Step implements Type.
func (ra RegisterArray) Step(s State, op Op, _ int) (Outcome, int) {
	enc, ok := s.Str()
	if !ok {
		return Outcome{}, 0
	}
	cells, err := decodeCells(enc)
	if err != nil {
		return Outcome{}, 0
	}
	switch op.Method {
	case MethodRead:
		if op.NArgs != 1 || op.Args[0] < 0 {
			return Outcome{}, 0
		}
		v, present := cells[op.Args[0]]
		if !present {
			v = ra.InitVal
		}
		return Outcome{Resp: v, Next: s}, 1
	case MethodWrite:
		if op.NArgs != 2 || op.Args[0] < 0 {
			return Outcome{}, 0
		}
		cells[op.Args[0]] = op.Args[1]
		return Outcome{Resp: 0, Next: StringState(encodeCells(cells))}, 1
	default:
		return Outcome{}, 0
	}
}

func decodeCells(enc string) (map[int64]int64, error) {
	cells := make(map[int64]int64)
	if enc == "" {
		return cells, nil
	}
	for _, pair := range strings.Split(enc, ";") {
		i := strings.IndexByte(pair, ':')
		if i < 0 {
			return nil, fmt.Errorf("register array state %q: missing ':'", enc)
		}
		idx, err := strconv.ParseInt(pair[:i], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("register array state %q: %w", enc, err)
		}
		val, err := strconv.ParseInt(pair[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("register array state %q: %w", enc, err)
		}
		cells[idx] = val
	}
	return cells, nil
}

func encodeCells(cells map[int64]int64) string {
	if len(cells) == 0 {
		return ""
	}
	idxs := make([]int64, 0, len(cells))
	for i := range cells {
		idxs = append(idxs, i)
	}
	// Insertion sort: cell counts are small and this avoids pulling in sort
	// for a hot path.
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && idxs[j] < idxs[j-1]; j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
	var b strings.Builder
	for k, i := range idxs {
		if k > 0 {
			b.WriteByte(';')
		}
		b.WriteString(strconv.FormatInt(i, 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(cells[i], 10))
	}
	return b.String()
}

// ----------------------------------------------------------------------------
// Table-driven finite types.

// TableType is a finite type given by an explicit transition table. It is
// the workhorse of the triviality experiments (Definition 13 /
// Proposition 14): small artificial types are easiest to state as tables.
// States are int64 indices 0..NStates-1; state 0 is initial.
type TableType struct {
	// TypeName identifies the table type.
	TypeName string
	// NStates is the number of states; states are 0..NStates-1.
	NStates int64
	// Ops is the operation alphabet.
	Ops []Op
	// Delta maps (state, op) to permitted outcomes. Missing entries mean
	// the operation is not applicable. Next states must be < NStates.
	Delta map[TableKey][]Outcome
}

// TableKey indexes a TableType transition table.
type TableKey struct {
	State int64
	Op    Op
}

var _ Type = (*TableType)(nil)
var _ OpEnumerator = (*TableType)(nil)

// Name implements Type.
func (t *TableType) Name() string { return t.TypeName }

// Init implements Type.
func (t *TableType) Init() State { return IntState(0) }

// Deterministic implements Type.
func (t *TableType) Deterministic() bool {
	for _, outs := range t.Delta {
		if len(outs) > 1 {
			return false
		}
	}
	return true
}

// Step implements Type: outcome i is Delta's entry i.
func (t *TableType) Step(s State, op Op, i int) (Outcome, int) {
	v, ok := s.Int()
	if !ok || v < 0 || v >= t.NStates {
		return Outcome{}, 0
	}
	outs := t.Delta[TableKey{State: v, Op: op}]
	if i >= len(outs) {
		return Outcome{}, len(outs)
	}
	return outs[i], len(outs)
}

// EnumOps implements OpEnumerator.
func (t *TableType) EnumOps() []Op {
	cp := make([]Op, len(t.Ops))
	copy(cp, t.Ops)
	return cp
}

// ConstantType returns a trivial table type per Definition 13: a single
// operation "get" that always returns the same value in every state. It is
// implementable with no inter-process communication.
func ConstantType(val int64) *TableType {
	get := MakeOp("get")
	return &TableType{
		TypeName: "constant",
		NStates:  1,
		Ops:      []Op{get},
		Delta: map[TableKey][]Outcome{
			{State: 0, Op: get}: {{Resp: val, Next: IntState(0)}},
		},
	}
}
