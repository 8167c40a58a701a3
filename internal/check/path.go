package check

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// PathChecker decides linearizability of a single-object history that grows
// and shrinks one event at a time — the recorded history along an
// advance/undo exploration path — without starting over at every length.
//
// Deciding linearizability is reachability over configurations (operations
// linearized, object state), and the condition is prefix-closed (Lemma 6),
// so the reachable set is carried forward event by event. levels[n] is the
// frontier after n events: every configuration a linearization of that
// prefix reaches when each operation is linearized as late as its order
// allows, i.e. in a batch just before a response, ending in the operation
// that responds. An invocation therefore only opens an operation and shares
// its predecessor's frontier; a response maps the frontier through every
// such batch (respond). An operation linearized while open was assigned a
// response the history has not shown yet: the assignment is part of the
// configuration and is compared when the response arrives. The history is
// linearizable iff the top frontier is non-empty.
//
// Masks are keyed by slot, not by operation: an invocation takes the lowest
// slot no open operation holds, and a response frees it. Every
// configuration of a frontier has linearized each answered operation, so
// only the open ones are kept, and the width of a frontier is bounded by the
// operations open at once, not by the length of the history.
//
// TLinearizable from scratch is the oracle this type is tested against. Not
// safe for concurrent use.
type PathChecker struct {
	typ    spec.Type
	budget int64 // configurations one event may expand (Options.Budget)
	left   int64 // what the event being pushed has left of it
	obj    string
	ops    []pathOp             // operations in invocation order
	at     [MaxOpsPerObject]int // at[s]: the index in ops of slot s's holder
	levels []pathLevel          // levels[n] describes the first n events
	cfgs   []pathConfig         // arena: the frontiers, level after level
	asg    []int64              // arena: the configurations' assigned responses
	// cur[s]: the response assigned to the open operation in slot s, if
	// linearized, in the configuration being extended.
	cur [MaxOpsPerObject]int64
}

type pathOp struct {
	op   spec.Op
	proc int
	slot int
	prev int // at[slot] before this operation took the slot
}

type pathLevel struct {
	lo, hi int    // the frontier is cfgs[lo:hi]
	asg    int    // len(asg) once the level was built
	ops    int    // operations invoked so far
	open   uint64 // the slots of those still unanswered
}

type pathConfig struct {
	mask  uint64 // open operations linearized, by slot
	state spec.State
	asg   int // offset in asg of the responses assigned to mask, by slot
}

// NewPathChecker returns a checker holding the empty history of obj. Of
// opts only Budget is read: the configurations one event may expand.
func NewPathChecker(obj spec.Object, opts Options) *PathChecker {
	return &PathChecker{
		typ:    obj.Type,
		budget: opts.budget(),
		levels: []pathLevel{{hi: 1}},
		cfgs:   []pathConfig{{state: obj.Init}},
	}
}

// Len returns the number of events held.
func (pc *PathChecker) Len() int { return len(pc.levels) - 1 }

// Linearizable reports whether the history held is linearizable.
func (pc *PathChecker) Linearizable() bool {
	top := pc.levels[len(pc.levels)-1]
	return top.hi > top.lo
}

// Truncate drops every event past the first n.
func (pc *PathChecker) Truncate(n int) {
	if n = max(n, 0); n >= pc.Len() {
		return
	}
	pc.levels = pc.levels[:n+1]
	top := pc.levels[n]
	for i := len(pc.ops) - 1; i >= top.ops; i-- {
		pc.at[pc.ops[i].slot] = pc.ops[i].prev
	}
	pc.cfgs, pc.asg, pc.ops = pc.cfgs[:top.hi], pc.asg[:top.asg], pc.ops[:top.ops]
}

// Push appends one event. It fails, leaving the checker as it was, on an
// event that is not well-formed after the ones held or is on another
// object, with ErrTooLarge on a 64th operation open at once, and with
// ErrBudget.
func (pc *PathChecker) Push(e history.Event) error {
	top := pc.levels[len(pc.levels)-1]
	j := -1 // the open operation of e.Proc
	for rest := top.open; rest != 0; rest &= rest - 1 {
		if i := bits.TrailingZeros64(rest); pc.ops[pc.at[i]].proc == e.Proc {
			j = i
		}
	}
	switch {
	case pc.Len() > 0 && e.Obj != pc.obj:
		return fmt.Errorf("check: path checker on %s given %s", pc.obj, e)
	case e.Kind == history.KindInvoke && j < 0:
		if bits.OnesCount64(top.open) == MaxOpsPerObject {
			return ErrTooLarge
		}
		s := bits.TrailingZeros64(^top.open)
		pc.ops = append(pc.ops, pathOp{op: e.Op, proc: e.Proc, slot: s, prev: pc.at[s]})
		pc.at[s] = top.ops
		top.open |= 1 << s
		top.ops++
	case e.Kind == history.KindRespond && j >= 0:
		if err := pc.respond(&top, j, e.Resp); err != nil {
			return err
		}
	default:
		return fmt.Errorf("check: %s is not well-formed after %d events", e, pc.Len())
	}
	pc.obj = e.Obj
	pc.levels = append(pc.levels, top)
	return nil
}

// respond turns top, the level before operation j answers v, into the level
// after it: a configuration that linearized j earlier survives iff it
// assigned v; any other is extended by every sequence of open operations
// that ends in j answering v.
func (pc *PathChecker) respond(top *pathLevel, j int, v int64) error {
	lo, hi, open := top.lo, top.hi, top.open
	top.lo, top.open = hi, open&^(1<<j)
	pc.left = pc.budget
	for k := lo; k < hi; k++ {
		c := pc.cfgs[k]
		for rest, a := c.mask&open, c.asg; rest != 0; rest, a = rest&(rest-1), a+1 {
			pc.cur[bits.TrailingZeros64(rest)] = pc.asg[a]
		}
		if c.mask&(1<<j) != 0 {
			if pc.cur[j] == v {
				pc.emit(top, c.mask, c.state)
			}
		} else if err := pc.linearize(top, open, c.mask, c.state, j, v); err != nil {
			pc.cfgs, pc.asg = pc.cfgs[:hi], pc.asg[:top.asg]
			return err
		}
	}
	top.hi, top.asg = len(pc.cfgs), len(pc.asg)
	return nil
}

// linearize extends the configuration (mask, state) by each operation of
// open not yet in mask: j answering v closes the batch, any other operation
// is assigned its response and the batch goes on.
func (pc *PathChecker) linearize(top *pathLevel, open, mask uint64, state spec.State, j int, v int64) error {
	if pc.left--; pc.left < 0 {
		return ErrBudget
	}
	for rest := open &^ mask; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		for k, n := 0, 1; k < n; k++ {
			var out spec.Outcome
			if out, n = pc.typ.Step(state, pc.ops[pc.at[i]].op, k); k >= n {
				break
			}
			if i != j {
				pc.cur[i] = out.Resp
				if err := pc.linearize(top, open, mask|1<<i, out.Next, j, v); err != nil {
					return err
				}
			} else if out.Resp == v {
				pc.emit(top, mask|1<<j, out.Next)
			}
		}
	}
	return nil
}

// emit adds (mask, state, cur), mask and cur cut down to the operations
// still open, to the frontier being built at cfgs[top.lo:], unless it is
// there. The scan is short: a frontier's configurations differ only in the
// open operations they linearized, at most one per process.
func (pc *PathChecker) emit(top *pathLevel, mask uint64, state spec.State) {
	mask &= top.open
	at := len(pc.asg)
	for rest := mask; rest != 0; rest &= rest - 1 {
		pc.asg = append(pc.asg, pc.cur[bits.TrailingZeros64(rest)])
	}
	for _, c := range pc.cfgs[top.lo:] {
		if c.mask == mask && c.state == state && slices.Equal(pc.asg[c.asg:c.asg+len(pc.asg)-at], pc.asg[at:]) {
			pc.asg = pc.asg[:at]
			return
		}
	}
	pc.cfgs = append(pc.cfgs, pathConfig{mask: mask, state: state, asg: at})
}
