package explore

import (
	"fmt"
	"sort"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// Valence is the set of consensus decisions reachable from a configuration.
type Valence struct {
	// Decisions holds each value some terminal run below the node decides.
	Decisions map[int64]bool
	// Truncated reports that some run below the node hit the horizon
	// before terminating, so Decisions may be incomplete.
	Truncated bool
}

// Multivalent reports whether at least two decisions are reachable.
func (v Valence) Multivalent() bool { return len(v.Decisions) >= 2 }

// Values returns the reachable decisions in ascending order.
func (v Valence) Values() []int64 {
	out := make([]int64, 0, len(v.Decisions))
	for d := range v.Decisions {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// valenceOf builds a Valence from a sorted decision slice.
func valenceOf(dec []int64, truncated bool) Valence {
	v := Valence{Decisions: make(map[int64]bool, len(dec)), Truncated: truncated}
	for _, d := range dec {
		v.Decisions[d] = true
	}
	return v
}

// PendingAction describes the next atomic action of one process at a
// configuration, for the critical-configuration case analysis of
// Proposition 15.
type PendingAction struct {
	// Proc is the process.
	Proc int
	// IsReturn reports whether the next action completes an operation
	// rather than accessing a base object.
	IsReturn bool
	// Base is the base object index (when !IsReturn).
	Base int
	// BaseName is the base object's name.
	BaseName string
	// BaseType is the base object's type name (e.g. "register").
	BaseType string
	// Eventually reports whether the base object is eventually
	// linearizable.
	Eventually bool
	// Desc renders the base operation.
	Desc string
}

// Critical describes a critical configuration: a multivalent configuration
// all of whose children are univalent — the pivot of the valency argument
// in Proposition 15 (and of FLP).
type Critical struct {
	// Depth is the configuration's depth in the tree.
	Depth int
	// Valence is the configuration's own valence.
	Valence Valence
	// Pending lists each enabled process's next action.
	Pending []PendingAction
	// SameObject reports whether all pending actions touch one base
	// object — which the paper's proof shows must be the case (otherwise
	// the steps commute).
	SameObject bool
	// History renders the configuration's implemented-level history.
	History string
}

// ValencyReport is the outcome of Analyze.
type ValencyReport struct {
	// Root is the root configuration's valence.
	Root Valence
	// Univalent and Multivalent count non-leaf configurations by valence.
	Univalent, Multivalent int
	// Criticals lists the critical configurations found.
	Criticals []Critical
	// AgreementViolations counts terminal runs in which two processes
	// decided differently (a broken protocol).
	AgreementViolations int
	// ViolationHistory is one violating history, if any.
	ViolationHistory string
	// Stats aggregates exploration counters.
	Stats Stats
}

// Analyze explores the execution tree of a consensus implementation (each
// process's workload should consist of propose operations) and performs
// the valency analysis of Proposition 15: it computes valences, counts
// uni/multivalent configurations, finds critical configurations, and
// records the case analysis data (are the two pending steps on the same
// object? of what kind?).
//
// Decisions are read from completed propose operations; runs in which two
// completed operations return different values are recorded as agreement
// violations (their "decision set" contains both values, which keeps the
// valence bookkeeping meaningful for broken protocols too).
//
// With Config.Dedup the
// valence of each distinct configuration is computed once and memoized
// under a key combining the full configuration encoding with the multiset
// of responses already completed (past decisions contribute to a node's
// valence, so configurations merge only when both agree — and comparing
// full encodings, not hashes, means a collision can never merge distinct
// configurations). Counters then count distinct configurations — the
// execution DAG — rather than tree nodes, and Stats.Deduped reports how
// many tree nodes were merged away.
//
// With more than one worker the subtrees below a frontier depth are
// classified in parallel and the analysis from the root, cut at that depth,
// takes their valences from the workers. Without Dedup the report is
// bit-identical for every worker count. With Dedup the counters, valences
// and verdicts stay deterministic, but which arrival path a merged
// configuration is attributed to is a race, so the example strings
// (ViolationHistory, a Critical's History) may differ between runs — the
// same caveat Dedup already carries sequentially versus the exact analysis.
func Analyze(root *sim.System, maxDepth int, cfg Config) (*ValencyReport, error) {
	// Merging goes through the analyzer's memo, whose key adds the
	// responses so far; the engines' visited sets stay off.
	dedup := cfg.Dedup
	cfg.Dedup = false
	rep := &ValencyReport{}
	e := newEngine(root, maxDepth, cfg, &rep.Stats)
	dedup = dedup && fingerprintable(e.sys)
	a := newAnalyzer(e, rep)
	if dedup {
		a.memo = localMemo{}
	}
	if w := cfg.workerCount(); w > 1 && maxDepth >= 2 {
		k, subs, err := analyzeSubtrees(root, e, cfg, w, dedup)
		if err != nil {
			return nil, err
		}
		// The real pass: a frontier node's valence is the one a worker
		// found, and its subtree's share of the report lands here, in the
		// postorder position the sequential analysis would give it.
		e.cutDepth, e.cut = k, func(path []pathStep) error {
			sub := subs[0]
			subs = subs[1:]
			rep.Univalent += sub.Univalent
			rep.Multivalent += sub.Multivalent
			rep.AgreementViolations += sub.AgreementViolations
			if rep.ViolationHistory == "" {
				rep.ViolationHistory = sub.ViolationHistory
			}
			rep.Criticals = append(rep.Criticals, sub.Criticals...)
			a.sets[k] = append(a.sets[k], sub.Root.Values()...)
			a.cutTruncated = sub.Root.Truncated
			return nil
		}
	}
	truncated, err := a.analyze(0)
	if err != nil {
		return nil, err
	}
	rep.Root = a.valence(0, truncated)
	return rep, nil
}

// analyzeSubtrees is the parallel part of Analyze, on the engine e the real
// pass will then run on. A throw-away pass of the analyzer itself, cut at
// the frontier depth k with the recording hook, enumerates the subtree tasks
// (it leaves every frontier node the empty valence) — it has to be analyze,
// so that memo pruning above the frontier drops the frontier nodes the real
// pass will drop and the i-th cut of either pass is the same node. The pool
// then classifies every subtree into a report of its own, Root included,
// returned in task order; the workers count into e's Stats. The cut is
// removed again: the caller installs its own at k.
func analyzeSubtrees(root *sim.System, e *engine, cfg Config, workers int, dedup bool) (int, []*ValencyReport, error) {
	k, err := chooseFrontier(e, workers, cfg.frontierDepth)
	if err != nil {
		return 0, nil, err
	}
	var tasks [][]pathStep
	e.recordCut(k, &tasks)
	scout := newAnalyzer(e, &ValencyReport{})
	var shared *shardedMemo
	if dedup {
		scout.memo = localMemo{}
		shared = newShardedMemo()
	}
	err = e.sub(0, e.maxDepth, new(Stats), func() error {
		_, err := scout.analyze(0)
		return err
	})
	e.cut = nil
	if err != nil {
		return 0, nil, err
	}
	subs := make([]*ValencyReport, len(tasks))
	err = runTasks(root, e.maxDepth, workers, cfg, tasks, nil, e.st,
		func(we *engine, depth int) error {
			wa := newAnalyzer(we, &ValencyReport{})
			if shared != nil {
				wa.memo = shared
			}
			truncated, err := wa.analyze(depth)
			wa.rep.Root = wa.valence(depth, truncated)
			subs[we.rank] = wa.rep
			return err
		}, nil)
	return k, subs, err
}

// valAnalyzer runs the valency analysis on the in-place engine. Decision
// sets live in per-depth scratch rows as sorted multiplicity-free slices,
// so the hot path performs no per-node allocation; Valence maps are built
// only where they escape (the root, critical configurations, sub-reports).
// It counts nodes into the engine's Stats and everything else into rep.
type valAnalyzer struct {
	eng     *engine
	rep     *ValencyReport
	sets    [][]int64 // per-depth decision scratch, sorted unique
	memo    memoTable // nil without Dedup
	respBuf []int64   // scratch for the memo key's completed-response multiset
	// cutTruncated is the truncation half of a frontier node's valence: the
	// engine's cut hook, which classify calls instead of classifying such a
	// node, leaves the decisions in sets[eng.cutDepth] and the flag here.
	cutTruncated bool
}

func newAnalyzer(e *engine, rep *ValencyReport) *valAnalyzer {
	return &valAnalyzer{eng: e, rep: rep, sets: make([][]int64, e.maxDepth+2)}
}

// analyze leaves the decision set of the configuration the engine stands
// on in a.sets[depth] and reports whether the horizon truncated it. With a
// memo, the first arrival at a configuration classifies it and later ones
// take its valence.
func (a *valAnalyzer) analyze(depth int) (bool, error) {
	a.sets[depth] = a.sets[depth][:0]
	var ent *memoEntry
	if a.memo != nil {
		if key, ok := a.memoKey(depth); ok {
			var claimed bool
			if ent, claimed = a.memo.claim(key); !claimed {
				// Another arrival (possibly on another worker) owns this
				// configuration; wait for its verdict. The wait cannot
				// deadlock — see shardedMemo.
				ent.wait()
				a.eng.st.Deduped++
				a.sets[depth] = append(a.sets[depth], ent.decisions...)
				return ent.truncated, nil
			}
		}
	}
	truncated, err := a.classify(depth)
	if ent != nil {
		// Resolved on the error path too, so that no waiter is stranded.
		ent.resolve(a.sets[depth], truncated)
	}
	return truncated, err
}

// classify is the per-node protocol of the analysis, below the memo: the
// cut, the count, a completed run's decisions, the horizon, then the
// children's valences and the node's own uni/multivalent/critical verdict.
// The cut comes after the memo lookup so that a second arrival at a
// frontier configuration is merged like any other instead of being handed
// out twice.
func (a *valAnalyzer) classify(depth int) (bool, error) {
	e := a.eng
	if e.atCut(depth) {
		err := e.cut(e.steps[:depth])
		return a.cutTruncated, err
	}
	e.st.Nodes++
	if e.sys.Done() {
		e.st.Leaves++
		a.terminal(depth)
		return false, nil
	}
	if depth >= e.maxDepth {
		e.st.Leaves++
		e.st.Truncated = true
		return true, nil
	}
	truncated := false
	allChildrenUnivalent := true
	err := e.expand(depth, func(d int) error {
		ctrunc, err := a.analyze(d)
		if err != nil {
			return err
		}
		for _, v := range a.sets[d] {
			a.sets[depth] = insertSorted(a.sets[depth], v)
		}
		truncated = truncated || ctrunc
		if len(a.sets[d]) >= 2 || ctrunc {
			allChildrenUnivalent = false
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	if len(a.sets[depth]) >= 2 {
		a.rep.Multivalent++
		if allChildrenUnivalent {
			crit, err := describeCritical(e.sys, depth, a.valence(depth, truncated))
			if err != nil {
				return false, err
			}
			a.rep.Criticals = append(a.rep.Criticals, crit)
		}
	} else if !truncated {
		a.rep.Univalent++
	}
	return truncated, nil
}

// terminal collects the decisions of a completed run (the responses of its
// completed operations) into the depth's scratch row and records agreement
// violations.
func (a *valAnalyzer) terminal(depth int) {
	h := a.eng.sys.History()
	for i := 0; i < h.Len(); i++ {
		if e := h.Event(i); e.Kind == history.KindRespond {
			a.sets[depth] = insertSorted(a.sets[depth], e.Resp)
		}
	}
	if len(a.sets[depth]) > 1 {
		a.rep.AgreementViolations++
		if a.rep.ViolationHistory == "" {
			a.rep.ViolationHistory = h.String()
		}
	}
}

// valence converts a depth's scratch row into an exported Valence.
func (a *valAnalyzer) valence(depth int, truncated bool) Valence {
	return valenceOf(a.sets[depth], truncated)
}

// memoKey builds the deduplication key for the current configuration: the
// engine's configuration key (full byte encoding and depth) and the sorted
// multiset of responses already completed in the history. Keys are compared
// exactly; no hashing. The returned slice aliases the engine's scratch
// buffer.
func (a *valAnalyzer) memoKey(depth int) ([]byte, bool) {
	b, ok := a.eng.configKey(depth)
	if !ok {
		return nil, false
	}
	h := a.eng.sys.History()
	buf := a.respBuf[:0]
	for i := 0; i < h.Len(); i++ {
		if e := h.Event(i); e.Kind == history.KindRespond {
			buf = append(buf, e.Resp)
		}
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	a.respBuf = buf
	for _, v := range buf {
		b = spec.AppendFPInt(b, v)
	}
	a.eng.keyBuf = b
	return b, true
}

// insertSorted inserts v into the sorted unique slice s.
func insertSorted(s []int64, v int64) []int64 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func describeCritical(s *sim.System, depth int, val Valence) (Critical, error) {
	bases := s.Impl().Bases()
	crit := Critical{
		Depth:   depth,
		Valence: val,
		History: s.History().String(),
	}
	for _, p := range s.Enabled() {
		act, _, err := s.NextAction(p)
		if err != nil {
			return Critical{}, err
		}
		pa := PendingAction{Proc: p}
		if act.Kind == machine.ActReturn {
			pa.IsReturn = true
			pa.Desc = act.String()
		} else {
			pa.Base = act.Obj
			pa.BaseName = bases[act.Obj].Name
			pa.BaseType = bases[act.Obj].Obj.Type.Name()
			pa.Eventually = bases[act.Obj].Eventually
			pa.Desc = fmt.Sprintf("%s.%s", pa.BaseName, act.Op)
		}
		crit.Pending = append(crit.Pending, pa)
	}
	crit.SameObject = true
	firstBase := -1
	for _, pa := range crit.Pending {
		if pa.IsReturn {
			crit.SameObject = false
			break
		}
		if firstBase == -1 {
			firstBase = pa.Base
		} else if pa.Base != firstBase {
			crit.SameObject = false
			break
		}
	}
	return crit, nil
}
