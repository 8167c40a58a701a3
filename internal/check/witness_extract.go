package check

import (
	"fmt"
	"strings"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// LinStep is one element of a witness t-linearization S: which operation
// of the history it is, and the response it takes in S (which may differ
// from its response in the history when that response fell in the first t
// events, and is freshly assigned for pending operations).
type LinStep struct {
	// OpIndex indexes into h.Operations().
	OpIndex int
	// Proc is the invoking process.
	Proc int
	// Op is the operation.
	Op spec.Op
	// Resp is the operation's response in S.
	Resp int64
	// RespDiffers reports that Resp differs from the history's response
	// (prefix-answered or pending operation).
	RespDiffers bool
}

// FormatLinearization renders a witness sequence human-readably.
func FormatLinearization(steps []LinStep) string {
	var b strings.Builder
	for i, s := range steps {
		mark := ""
		if s.RespDiffers {
			mark = " (reassigned)"
		}
		fmt.Fprintf(&b, "%3d. p%d %s -> %d%s\n", i+1, s.Proc, s.Op, s.Resp, mark)
	}
	return b.String()
}

// Linearization searches for a witness t-linearization of the
// single-object history h and returns it as an ordered sequence. It always
// uses the generic engine (no fast paths), so it is subject to the
// 63-operation cap; use TLinearizable for decision-only queries on long
// fetch&increment histories.
func Linearization(obj spec.Object, h *history.History, t int, opts Options) ([]LinStep, bool, error) {
	if err := oneObject(h); err != nil {
		return nil, false, err
	}
	if t < 0 {
		t = 0
	}
	var tb history.OpTable
	tb.Fill(h)
	if len(tb.Ops) > MaxOpsPerObject {
		return nil, false, ErrTooLarge
	}
	var pr tlinProblem
	var trace []LinStep
	pr.reset(obj, &tb, t, opts)
	pr.trace = &trace
	if ok, err := pr.solve(); !ok || err != nil {
		return nil, false, err
	}
	return trace, true, nil
}

// ValidateLinearization checks that a claimed witness really is a
// t-linearization of h: legal, complete, response-matching on the suffix,
// and real-time respecting. It is the independent auditor used by tests.
func ValidateLinearization(obj spec.Object, h *history.History, t int, steps []LinStep) error {
	ops := h.Operations()
	pred, constrained, completed := opConstraints(ops, t)

	seen := make(map[int]bool, len(steps))
	var chosen uint64
	state := obj.Init
	for k, s := range steps {
		if s.OpIndex < 0 || s.OpIndex >= len(ops) {
			return fmt.Errorf("step %d: op index %d out of range", k, s.OpIndex)
		}
		if seen[s.OpIndex] {
			return fmt.Errorf("step %d: op %d appears twice", k, s.OpIndex)
		}
		seen[s.OpIndex] = true
		bit := uint64(1) << uint(s.OpIndex)
		if pred[s.OpIndex]&^chosen != 0 {
			return fmt.Errorf("step %d: op %d linearized before a real-time predecessor", k, s.OpIndex)
		}
		if constrained&bit != 0 && s.Resp != ops[s.OpIndex].Resp {
			return fmt.Errorf("step %d: op %d must return %d, witness has %d",
				k, s.OpIndex, ops[s.OpIndex].Resp, s.Resp)
		}
		legal := false
		for _, out := range spec.Outcomes(obj.Type, state, ops[s.OpIndex].Op) {
			if out.Resp == s.Resp {
				state = out.Next
				legal = true
				break
			}
		}
		if !legal {
			return fmt.Errorf("step %d: response %d illegal for %s in state %v",
				k, s.Resp, ops[s.OpIndex].Op, state)
		}
		chosen |= bit
	}
	if chosen&completed != completed {
		return fmt.Errorf("witness omits completed operations")
	}
	return nil
}

// opConstraints is the auditor's copy of the constraints at cut t, straight
// from the definition by testing every pair of operations: O(n²), and
// independent of the table and the merge the engines build theirs with
// (tableConstraints).
func opConstraints(ops []history.Operation, t int) (pred []uint64, constrained, completed uint64) {
	pred = make([]uint64, len(ops))
	for j := range ops {
		opj := &ops[j]
		if opj.Res >= 0 {
			completed |= 1 << uint(j)
			if opj.Res >= t {
				constrained |= 1 << uint(j)
			}
		}
		if opj.Inv < t {
			continue // invocation in the prefix: no incoming real-time edges
		}
		for i := range ops {
			if res := ops[i].Res; i != j && res >= t && res < opj.Inv {
				pred[j] |= 1 << uint(i)
			}
		}
	}
	return pred, constrained, completed
}
