package scenario

import (
	"fmt"

	"github.com/elin-go/elin/internal/explore"
)

// Explore is the bounded exhaustive engine: it quantifies over every
// interleaving (and every weakly consistent response choice) up to
// Budget.Depth and runs the analysis named by Scenario.Analysis.
type Explore struct{}

// Name implements Engine.
func (Explore) Name() string { return "explore" }

// Run implements Engine.
func (Explore) Run(s Scenario) (*Report, error) {
	s = s.withDefaults()
	if err := s.rejectLiveOnly("explore"); err != nil {
		return nil, err
	}
	root, _, err := buildSystem(s)
	if err != nil {
		return nil, err
	}
	cfg := explore.Config{
		Workers:          s.Workers,
		Dedup:            s.Dedup,
		CheckDeterminism: s.CheckDeterminism,
	}
	rep := &Report{Schema: Schema, Engine: "explore", Scenario: s.info("explore")}
	switch s.Analysis {
	case AnalysisLin, AnalysisWeak:
		everywhere := explore.LinearizableEverywhere
		what := "linearizable"
		if s.Analysis == AnalysisWeak {
			everywhere = explore.WeaklyConsistentEverywhere
			what = "weakly consistent"
		}
		okAll, badSys, st, err := everywhere(root, s.Budget.Depth, cfg, s.Check)
		if err != nil {
			return nil, err
		}
		rep.Explore = &ExploreInfo{Nodes: st.Nodes, Leaves: st.Leaves, Truncated: st.Truncated, Deduped: st.Deduped}
		if okAll {
			rep.Verdict = VerdictOK
			rep.Detail = fmt.Sprintf("every bounded interleaving is %s", what)
		} else {
			rep.Verdict = VerdictViolation
			rep.Detail = fmt.Sprintf("found an interleaving that is not %s", what)
			rep.Witness = &WitnessInfo{History: badSys.History().String(), MinT: -1}
		}
	case AnalysisValency:
		vrep, err := explore.Analyze(root, s.Budget.Depth, cfg)
		if err != nil {
			return nil, err
		}
		rep.Explore = &ExploreInfo{
			Nodes: vrep.Stats.Nodes, Leaves: vrep.Stats.Leaves,
			Truncated: vrep.Stats.Truncated, Deduped: vrep.Stats.Deduped,
		}
		rep.Valency = &ValencyInfo{
			RootValence:         vrep.Root.Values(),
			Truncated:           vrep.Root.Truncated,
			Multivalent:         vrep.Multivalent,
			Univalent:           vrep.Univalent,
			Criticals:           len(vrep.Criticals),
			AgreementViolations: vrep.AgreementViolations,
		}
		if vrep.AgreementViolations == 0 {
			rep.Verdict = VerdictOK
			rep.Detail = fmt.Sprintf("root valence %v, no agreement violations", vrep.Root.Values())
		} else {
			rep.Verdict = VerdictViolation
			rep.Detail = fmt.Sprintf("%d agreement violations", vrep.AgreementViolations)
			if vrep.ViolationHistory != "" {
				rep.Witness = &WitnessInfo{History: vrep.ViolationHistory, MinT: -1}
			}
		}
	case AnalysisStable:
		res, err := explore.FindStable(root, s.Budget.Depth, s.Budget.VerifyDepth, cfg, s.Check)
		if err != nil {
			return nil, err
		}
		rep.Verdict = VerdictOK
		rep.Detail = fmt.Sprintf("stable configuration at depth %d (t=%d)", res.Depth, res.T)
		rep.Stable = &StableInfo{
			Depth: res.Depth, T: res.T, NodesSearched: res.NodesSearched,
			VerifyNodes: res.VerifyStats.Nodes, VerifyLeaves: res.VerifyStats.Leaves,
		}
		rep.Witness = &WitnessInfo{History: res.System.History().String(), MinT: res.T}
	default:
		return nil, fmt.Errorf("scenario: unknown analysis %q (known: %s, %s, %s, %s)",
			s.Analysis, AnalysisLin, AnalysisWeak, AnalysisValency, AnalysisStable)
	}
	return rep, nil
}
