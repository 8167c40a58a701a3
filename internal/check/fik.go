package check

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// scratch holds what the window checks work in: the fetch&inc kernel's
// buffers and the generic engine's search, which every probe resets. A
// monitor owns one and passes it to every window check, so a steady-state
// check allocates nothing.
type scratch struct {
	taken      []uint64 // bitset of the slots constrained operations occupy
	thresholds []int64  // per pending operation, the largest slot it may not take
	lin        tlinProblem
}

// fetchIncTLinearizable decides t-linearizability of a fetch&increment
// history in polynomial time. The algorithm is the combinatorial core of
// the proof of Lemma 17 turned into a decision procedure:
//
//   - Operations answered in the suffix after event t ("constrained") must
//     occupy slot v in any t-linearization S, where v is their response
//     (offset by the initial counter value). Two equal responses in the
//     suffix are an immediate violation.
//   - Real-time edges between suffix operations force slot order.
//   - The remaining slots below the top constrained slot ("the set E of the
//     proof") must be filled by operations answered in the prefix (free
//     fillers, the proof's A1) or pending operations (the proof's A4). A
//     pending operation invoked in the suffix may only take a slot greater
//     than the slots of all constrained operations that precede it in real
//     time. Feasibility of that assignment is a greedy matching: gap
//     eligibility is upward closed in the slot, so scanning gaps in
//     ascending order and consuming any eligible filler is exact.
//
// An operation fetch&inc cannot apply fails the history when completed and
// is dropped when pending (the package rule).
//
// Complexity: O(n) on a prepared table of n operations. The table lists the
// operations by invocation and the completed ones by response, so the
// edge scan is one merge of the two orders carrying the running maximum
// slot, and it meets the pending operations in ascending order of their
// lower bounds; no sort, and no map — occupied slots are a bitset in sc.
func fetchIncTLinearizable(obj spec.Object, tb *history.OpTable, t int, sc *scratch) (bool, error) {
	initVal, ok := obj.Init.(int64)
	if !ok {
		return false, fmt.Errorf("check: fetch&inc initial state %v is not int64", obj.Init)
	}
	ops := tb.Ops
	for i := range ops {
		if ops[i].Res >= 0 && !applicable(obj.Type, &ops[i].Op) {
			return false, nil
		}
	}

	// Constrained operations (response in the suffix) carry fixed slots;
	// ByRes is in response order, so they are its tail.
	first := sort.Search(len(tb.ByRes), func(i int) bool { return ops[tb.ByRes[i]].Res >= t })
	constrained := tb.ByRes[first:]
	if len(constrained) == 0 {
		// No response constraints and no real-time edges: any ordering of
		// the completed operations with reassigned responses is legal
		// (fetch&inc is total).
		return true, nil
	}
	words := (len(ops) + 63) / 64
	if cap(sc.taken) < words {
		sc.taken = make([]uint64, words)
	}
	taken := sc.taken[:words]
	clear(taken)
	maxSlot := int64(-1)
	for _, j := range constrained {
		slot := ops[j].Resp - initVal
		// A t-linearization fills every slot up to the top constrained one
		// with a distinct operation, so a slot past the operation count is
		// as illegal as one below the initial value.
		if slot < 0 || slot >= int64(len(ops)) {
			return false, nil
		}
		if taken[slot/64]&(1<<(slot%64)) != 0 {
			return false, nil // duplicate responses in the suffix
		}
		taken[slot/64] |= 1 << (slot % 64)
		maxSlot = max(maxSlot, slot)
	}

	// Real-time edges among suffix events: for op1 constrained and op2 with
	// invocation in the suffix, res(op1) < inv(op2) forces slot order (for
	// constrained op2) or a slot lower bound (for pending op2). Walking the
	// operations by invocation, before is the largest slot of a constrained
	// operation answered before the current invocation, or -1.
	before, next := int64(-1), 0
	free := 0
	thresholds := sc.thresholds[:0]
	for i := range ops {
		op := &ops[i]
		for next < len(constrained) && ops[constrained[next]].Res < op.Inv {
			before = max(before, ops[constrained[next]].Resp-initVal)
			next++
		}
		switch {
		case op.Res >= t:
			if op.Inv >= t && before >= op.Resp-initVal {
				return false, nil // a real-time predecessor has an equal or larger slot
			}
		case op.Res >= 0:
			free++
		case !applicable(obj.Type, &op.Op):
			// A pending operation the type cannot apply is dropped.
		case op.Inv < t:
			thresholds = append(thresholds, -1) // no incoming edges: universal
		default:
			thresholds = append(thresholds, before)
		}
	}
	sc.thresholds = thresholds

	// Gap filling: slots 0..maxSlot not taken by constrained ops must be
	// filled. Fillers: free ops (eligible for any gap) and pending ops
	// (eligible for gaps strictly above their real-time lower bound, which
	// the walk above produced in ascending order).
	available := free
	next = 0
	for w, word := range taken[:maxSlot/64+1] {
		gaps := ^word
		if w == int(maxSlot/64) {
			gaps &= 1<<(maxSlot%64+1) - 1
		}
		for ; gaps != 0; gaps &= gaps - 1 {
			g := int64(w*64 + bits.TrailingZeros64(gaps))
			for next < len(thresholds) && thresholds[next] < g {
				available++
				next++
			}
			if available == 0 {
				return false, nil
			}
			available--
		}
	}
	return true, nil
}

// FetchIncSlots returns, for a t-linearizable fetch&inc history, the slot
// (position in the t-linearization) that each suffix-constrained operation
// must occupy, keyed by operation index in h.Operations(). It exposes the
// "slot exhaustion" phenomenon behind the Section 3.2 counterexample: as
// the constrained operations fill an initial segment of the naturals, any
// prefix-answered operation is forced to ever larger slots.
func FetchIncSlots(obj spec.Object, h *history.History, t int) (map[int]int64, error) {
	initVal, ok := obj.Init.(int64)
	if !ok {
		return nil, fmt.Errorf("check: fetch&inc initial state %v is not int64", obj.Init)
	}
	out := make(map[int]int64)
	for i, op := range h.Operations() {
		if op.Res >= t {
			out[i] = op.Resp - initVal
		}
	}
	return out, nil
}
