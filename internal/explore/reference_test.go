package explore

import (
	"fmt"

	"github.com/elin-go/elin/internal/sim"
)

// This file retains the original clone-per-edge exploration engine. It is
// the semantic reference for the in-place advance/undo engine in
// explore.go: the equivalence tests assert that both engines produce
// identical Stats, leaf histories, valency classifications and stable-node
// verdicts, and the BenchmarkExploreUndo*/BenchmarkExploreClone* pairs
// quantify what the undo engine buys. It is not used on any production
// path.

// CloneDFS is the clone-per-edge reference implementation of DFS: every
// edge deep-copies the entire configuration (programmes, base objects and
// both histories) before advancing.
func CloneDFS(root *sim.System, maxDepth int, visit Visitor) (Stats, error) {
	var st Stats
	err := cloneDFS(root, 0, maxDepth, visit, &st)
	return st, err
}

func cloneDFS(s *sim.System, depth, maxDepth int, visit Visitor, st *Stats) error {
	st.Nodes++
	descend := true
	if visit != nil {
		var err error
		descend, err = visit(s, depth)
		if err != nil {
			return err
		}
	}
	enabled := s.Enabled()
	if len(enabled) == 0 {
		st.Leaves++
		return nil
	}
	if !descend {
		return nil
	}
	if depth >= maxDepth {
		st.Leaves++
		st.Truncated = true
		return nil
	}
	for _, p := range enabled {
		cands, err := s.Candidates(p)
		if err != nil {
			return fmt.Errorf("explore: candidates for p%d at depth %d: %w", p, depth, err)
		}
		for branch := range cands {
			child := s.Clone()
			if err := child.Advance(p, branch); err != nil {
				return fmt.Errorf("explore: advance p%d branch %d at depth %d: %w", p, branch, depth, err)
			}
			if err := cloneDFS(child, depth+1, maxDepth, visit, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// CloneLeaves is the clone-per-edge reference implementation of Leaves.
func CloneLeaves(root *sim.System, maxDepth int, fn func(leaf *sim.System) error) (Stats, error) {
	var st Stats
	err := cloneLeaves(root, 0, maxDepth, fn, &st)
	return st, err
}

func cloneLeaves(s *sim.System, depth, maxDepth int, fn func(*sim.System) error, st *Stats) error {
	st.Nodes++
	enabled := s.Enabled()
	if len(enabled) == 0 || depth >= maxDepth {
		st.Leaves++
		if len(enabled) > 0 {
			st.Truncated = true
		}
		return fn(s)
	}
	for _, p := range enabled {
		cands, err := s.Candidates(p)
		if err != nil {
			return fmt.Errorf("explore: candidates for p%d at depth %d: %w", p, depth, err)
		}
		for branch := range cands {
			child := s.Clone()
			if err := child.Advance(p, branch); err != nil {
				return fmt.Errorf("explore: advance p%d branch %d at depth %d: %w", p, branch, depth, err)
			}
			if err := cloneLeaves(child, depth+1, maxDepth, fn, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// CloneAnalyze is the clone-per-edge reference implementation of Analyze.
func CloneAnalyze(root *sim.System, maxDepth int) (*ValencyReport, error) {
	rep := &ValencyReport{}
	rootVal, err := cloneAnalyze(root, 0, maxDepth, rep)
	if err != nil {
		return nil, err
	}
	rep.Root = rootVal
	return rep, nil
}

func cloneAnalyze(s *sim.System, depth, maxDepth int, rep *ValencyReport) (Valence, error) {
	rep.Stats.Nodes++
	enabled := s.Enabled()
	if len(enabled) == 0 {
		rep.Stats.Leaves++
		return cloneTerminalValence(s, rep), nil
	}
	if depth >= maxDepth {
		rep.Stats.Leaves++
		rep.Stats.Truncated = true
		return Valence{Decisions: map[int64]bool{}, Truncated: true}, nil
	}
	val := Valence{Decisions: map[int64]bool{}}
	allChildrenUnivalent := true
	for _, p := range enabled {
		cands, err := s.Candidates(p)
		if err != nil {
			return Valence{}, fmt.Errorf("explore: candidates for p%d: %w", p, err)
		}
		for branch := range cands {
			child := s.Clone()
			if err := child.Advance(p, branch); err != nil {
				return Valence{}, fmt.Errorf("explore: advance p%d: %w", p, err)
			}
			cv, err := cloneAnalyze(child, depth+1, maxDepth, rep)
			if err != nil {
				return Valence{}, err
			}
			for d := range cv.Decisions {
				val.Decisions[d] = true
			}
			val.Truncated = val.Truncated || cv.Truncated
			if cv.Multivalent() || cv.Truncated {
				allChildrenUnivalent = false
			}
		}
	}
	if val.Multivalent() {
		rep.Multivalent++
		if allChildrenUnivalent {
			crit, err := describeCritical(s, depth, val)
			if err != nil {
				return Valence{}, err
			}
			rep.Criticals = append(rep.Criticals, crit)
		}
	} else if !val.Truncated {
		rep.Univalent++
	}
	return val, nil
}

// cloneTerminalValence extracts the decision(s) of a completed run.
func cloneTerminalValence(s *sim.System, rep *ValencyReport) Valence {
	val := Valence{Decisions: map[int64]bool{}}
	for _, op := range s.History().Operations() {
		if !op.Pending() {
			val.Decisions[op.Resp] = true
		}
	}
	if len(val.Decisions) > 1 {
		rep.AgreementViolations++
		if rep.ViolationHistory == "" {
			rep.ViolationHistory = s.History().String()
		}
	}
	return val
}
