package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
)

// Schema is the Report JSON schema identifier. Bump it on any
// backwards-incompatible change to the encoding; the golden tests pin the
// current shape.
const Schema = "elin/report/v1"

// Verdict values.
const (
	// VerdictOK: the scenario passed its engine's check (within tolerance,
	// up to the configured bounds).
	VerdictOK = "ok"
	// VerdictViolation: the engine produced a counterexample (a violating
	// interleaving, a history beyond tolerance, or a flagged monitor
	// window).
	VerdictViolation = "violation"
)

// ScenarioInfo echoes the resolved scenario a report describes: every
// coordinate of the table (Coords binds them by field name) in its
// canonical stored form, and the knobs of the one engine that ran it.
type ScenarioInfo struct {
	Name        string `json:"name,omitempty"`
	Impl        string `json:"impl"`
	Workload    string `json:"workload"`
	Scheduler   string `json:"scheduler,omitempty"`
	Chooser     string `json:"chooser,omitempty"`
	Policy      string `json:"policy"`
	Analysis    string `json:"analysis,omitempty"`
	Procs       int    `json:"procs"`
	Ops         int    `json:"ops"`
	Seed        int64  `json:"seed"`
	Tolerance   int    `json:"tolerance"`
	Depth       int    `json:"depth,omitempty"`
	VerifyDepth int    `json:"verify_depth,omitempty"`
	MaxSteps    int    `json:"max_steps,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	// The option coordinates, each "" at its default: the canonical
	// fault-injection spec (Live), network fault spec (Serve), durability
	// policy of a run writing a commit log, and monitor spec. Serial reports
	// the Live engine's deterministic serial driver, Stride the monitor or
	// trend stride asked for (0: automatic) on Live, Serve and Sim.
	Faults    string `json:"faults,omitempty"`
	Serial    bool   `json:"serial,omitempty"`
	Stride    int    `json:"stride,omitempty"`
	NetFaults string `json:"net_faults,omitempty"`
	WALSync   string `json:"wal_sync,omitempty"`
	Monitor   string `json:"monitor,omitempty"`
}

// Checks reports the after-the-fact decision procedures an engine ran on
// its recorded history.
type Checks struct {
	// Linearizable / WeaklyConsistent are the per-history verdicts, when
	// computed.
	Linearizable     *bool `json:"linearizable,omitempty"`
	WeaklyConsistent *bool `json:"weakly_consistent,omitempty"`
	// MinT is the least t making the history t-linearizable, -1 when no t
	// works; nil when the check did not run.
	MinT *int `json:"min_t,omitempty"`
	// ReplayIdentical reports the Live engine's byte-identical replay
	// verification (reproducibility from seed + commit order).
	ReplayIdentical *bool `json:"replay_identical,omitempty"`
}

// TrendSample is one (prefix events, MinT) measurement.
type TrendSample struct {
	Events int `json:"events"`
	MinT   int `json:"min_t"`
}

// TrendInfo is the MinT-trend classification over growing prefixes (Sim)
// or monitor windows (Live).
type TrendInfo struct {
	Trend     string  `json:"trend"`
	FinalMinT int     `json:"final_min_t"`
	Slope     float64 `json:"slope"`
	// Windows counts the measurements taken; it stays meaningful when an
	// archiver strips the sample list.
	Windows int `json:"windows"`
	// Undecided counts the windows the search budget left without a sample.
	Undecided int           `json:"undecided,omitempty"`
	Samples   []TrendSample `json:"samples,omitempty"`
}

// ExploreInfo aggregates exhaustive-exploration counters.
type ExploreInfo struct {
	Nodes     int  `json:"nodes"`
	Leaves    int  `json:"leaves"`
	Truncated bool `json:"truncated"`
	Deduped   int  `json:"deduped,omitempty"`
}

// ValencyInfo is the AnalysisValency summary.
type ValencyInfo struct {
	RootValence         []int64 `json:"root_valence"`
	Truncated           bool    `json:"truncated"`
	Multivalent         int     `json:"multivalent"`
	Univalent           int     `json:"univalent"`
	Criticals           int     `json:"criticals"`
	AgreementViolations int     `json:"agreement_violations"`
}

// StableInfo is the AnalysisStable summary.
type StableInfo struct {
	Depth         int `json:"depth"`
	T             int `json:"t"`
	NodesSearched int `json:"nodes_searched"`
	VerifyNodes   int `json:"verify_nodes"`
	VerifyLeaves  int `json:"verify_leaves"`
}

// ShrunkInfo describes a ddmin-minimized, simulator-confirmed live
// witness.
type ShrunkInfo struct {
	Ops         int     `json:"ops"`
	Trials      int     `json:"trials"`
	SimDiverged bool    `json:"sim_diverged"`
	Proc        int     `json:"proc,omitempty"`
	Op          string  `json:"op,omitempty"`
	Got         int64   `json:"got,omitempty"`
	Want        []int64 `json:"want,omitempty"`
}

// WitnessInfo carries a counterexample: the violating history (rendered in
// the compact text serialization) plus engine-specific context.
type WitnessInfo struct {
	// History is the violating history, text-serialized.
	History string `json:"history,omitempty"`
	// WindowStart/WindowEnd locate a Live monitor window in the merged
	// history ([start, end) event indexes).
	WindowStart int `json:"window_start,omitempty"`
	WindowEnd   int `json:"window_end,omitempty"`
	// MinT is the measured MinT of the violating history/window (-1: not
	// t-linearizable for any t).
	MinT int `json:"min_t"`
	// Shrunk describes the minimized witness, when shrinking ran.
	Shrunk *ShrunkInfo `json:"shrunk,omitempty"`
}

// PerfInfo carries the measured execution characteristics. Wall-clock
// fields are inherently run-dependent; Canonical zeroes them for golden
// comparisons.
type PerfInfo struct {
	// Steps is the number of atomic steps (Sim).
	Steps int `json:"steps,omitempty"`
	// TimedOut reports a Sim run cut off by MaxSteps.
	TimedOut bool `json:"timed_out,omitempty"`
	// Ops counts completed operations, Events recorded history events.
	Ops    int `json:"ops"`
	Events int `json:"events"`
	// NS is wall-clock run time in nanoseconds (Live).
	NS int64 `json:"ns,omitempty"`
	// ThroughputOpsS is completed operations per second (Live).
	ThroughputOpsS float64 `json:"throughput_ops_s,omitempty"`
	// P50NS/P95NS/P99NS are latency percentiles in nanoseconds (Live).
	P50NS int64 `json:"p50_ns,omitempty"`
	P95NS int64 `json:"p95_ns,omitempty"`
	P99NS int64 `json:"p99_ns,omitempty"`
	// Gomaxprocs records the scheduler parallelism the run had available.
	Gomaxprocs int `json:"gomaxprocs,omitempty"`
	// Overloaded reports that the Serve engine's overload controller
	// degraded the monitor to sampling; MonSampleEvery is the widest
	// sampling interval reached (0 when never degraded), MonWindowsSkipped
	// the windows that skipped their MinT search (their events still fold
	// into the incremental state) on either engine, under a degraded or a
	// sample:N monitor, MonEscalations the near-violation escalations back
	// to exhaustive checking.
	Overloaded        bool `json:"overloaded,omitempty"`
	MonSampleEvery    int  `json:"mon_sample_every,omitempty"`
	MonWindowsSkipped int  `json:"mon_windows_skipped,omitempty"`
	MonEscalations    int  `json:"mon_escalations,omitempty"`
}

// NetInfo describes what the Serve engine's client fleet endured on the
// wire: reconnects and resends under the network fault plane, and the
// exactly-once ledger (Lost/Duplicated are the contract — both zero on any
// ok report).
type NetInfo struct {
	Clients    int `json:"clients"`
	Retries    int `json:"retries,omitempty"`
	Reconnects int `json:"reconnects,omitempty"`
	Refused    int `json:"refused,omitempty"`
	Lost       int `json:"lost"`
	Duplicated int `json:"duplicated"`
}

// RecoveryInfo describes a crash-recovery pipeline: what a commit log
// yielded, how the replay resumed, and how far the continuation ran.
type RecoveryInfo struct {
	// Frames counts the intact event frames decoded from the log; Torn
	// reports a tail cut mid-frame (TornAt: the byte offset of the first
	// bad frame — everything before it recovered).
	Frames int   `json:"frames"`
	Torn   bool  `json:"torn,omitempty"`
	TornAt int64 `json:"torn_at,omitempty"`
	// RecoveredEvents/RecoveredCommits describe the replayed prefix:
	// history events recovered, completed operations replayed into the
	// object. PendingOps counts invocations lost in flight at the crash.
	RecoveredEvents  int `json:"recovered_events"`
	RecoveredCommits int `json:"recovered_commits"`
	PendingOps       int `json:"pending_ops,omitempty"`
	// ResumedSeq is the commit ticket the continuation started from.
	ResumedSeq uint64 `json:"resumed_seq"`
	// ContinuedOps counts the continuation run's completed operations;
	// StitchedEvents is the total stitched history length (recovered
	// prefix plus continuation).
	ContinuedOps   int `json:"continued_ops"`
	StitchedEvents int `json:"stitched_events"`
}

// FuzzInfo summarizes a Live fuzz campaign.
type FuzzInfo struct {
	Runs     int   `json:"runs"`
	TotalOps int   `json:"total_ops"`
	Found    bool  `json:"found"`
	Seed     int64 `json:"seed,omitempty"`
}

// Report is the unified outcome every engine returns. Its JSON encoding is
// stable (schema-tagged and golden-tested); nil sections are omitted, so a
// report only carries the sections its engine produces.
type Report struct {
	Schema   string       `json:"schema"`
	Engine   string       `json:"engine"`
	Scenario ScenarioInfo `json:"scenario"`
	Verdict  string       `json:"verdict"`
	// Detail is a one-line human-readable summary of the verdict.
	Detail  string       `json:"detail,omitempty"`
	Checks  *Checks      `json:"checks,omitempty"`
	Trend   *TrendInfo   `json:"trend,omitempty"`
	Explore *ExploreInfo `json:"explore,omitempty"`
	Valency *ValencyInfo `json:"valency,omitempty"`
	Stable  *StableInfo  `json:"stable,omitempty"`
	Witness *WitnessInfo `json:"witness,omitempty"`
	Perf    *PerfInfo    `json:"perf,omitempty"`
	// Net is present on Serve reports whose client fleet ran.
	Net  *NetInfo  `json:"net,omitempty"`
	Fuzz *FuzzInfo `json:"fuzz,omitempty"`
	// Recovery is present on reports of the crash-recovery pipeline
	// (scenario.Recover): log recovery, replay, continuation.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`

	// history is the recorded history of the engines that keep one (Sim,
	// Live). Unexported: it never enters the JSON encoding.
	history *history.History
}

// History returns the engine's recorded history (Sim: the run's history;
// Live: the merged history), or nil for engines that do not keep one.
func (r *Report) History() *history.History { return r.history }

// OK reports whether the verdict is VerdictOK.
func (r *Report) OK() bool { return r.Verdict == VerdictOK }

// Canonical returns a deep copy with every wall-clock-dependent field
// zeroed (run time, throughput, latency percentiles, GOMAXPROCS), so that
// reports of deterministic scenarios compare byte-for-byte across runs and
// machines — the form the golden tests pin. Every section pointer is
// copied, so mutating the canonical report never touches the original.
func (r *Report) Canonical() *Report {
	cp := *r
	cp.Checks = copyPtr(r.Checks)
	cp.Explore = copyPtr(r.Explore)
	cp.Valency = copyPtr(r.Valency)
	if cp.Valency != nil {
		cp.Valency.RootValence = append([]int64(nil), r.Valency.RootValence...)
	}
	cp.Stable = copyPtr(r.Stable)
	cp.Fuzz = copyPtr(r.Fuzz)
	cp.Recovery = copyPtr(r.Recovery)
	if r.Trend != nil {
		trend := *r.Trend
		trend.Samples = append([]TrendSample(nil), r.Trend.Samples...)
		cp.Trend = &trend
	}
	if r.Witness != nil {
		wit := *r.Witness
		wit.Shrunk = copyPtr(r.Witness.Shrunk)
		if wit.Shrunk != nil {
			wit.Shrunk.Want = append([]int64(nil), wit.Shrunk.Want...)
		}
		cp.Witness = &wit
	}
	if r.Perf != nil {
		perf := *r.Perf
		perf.NS = 0
		perf.ThroughputOpsS = 0
		perf.P50NS, perf.P95NS, perf.P99NS = 0, 0, 0
		perf.Gomaxprocs = 0
		// Overload and sampling depend on load timing, not the scenario.
		perf.Overloaded = false
		perf.MonSampleEvery, perf.MonWindowsSkipped, perf.MonEscalations = 0, 0, 0
		cp.Perf = &perf
	}
	if r.Net != nil {
		net := *r.Net
		// Reconnect counts ride wall-clock races (when a drop fires relative
		// to in-flight requests, how often a partitioned client knocks); the
		// exactly-once ledger and the fleet size are the scenario's contract.
		net.Retries, net.Reconnects, net.Refused = 0, 0, 0
		cp.Net = &net
	}
	return &cp
}

// copyPtr shallow-copies a section pointer (nil-safe).
func copyPtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	cp := *p
	return &cp
}

// EncodeJSON writes the report's stable JSON encoding (indented, trailing
// newline).
func (r *Report) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render writes the human-readable form of the report.
func (r *Report) Render(w io.Writer) error {
	sc := r.Scenario
	fmt.Fprintf(w, "engine=%s impl=%s workload=%s", r.Engine, sc.Impl, sc.Workload)
	if sc.Policy != DefaultPolicy {
		fmt.Fprintf(w, " policy=%s", sc.Policy)
	}
	fmt.Fprintf(w, " procs=%d ops=%d", sc.Procs, sc.Ops)
	if sc.Tolerance != 0 {
		fmt.Fprintf(w, " tolerance=%d", sc.Tolerance)
	}
	if sc.Serial {
		fmt.Fprint(w, " serial=true")
	}
	if sc.Stride != 0 {
		fmt.Fprintf(w, " stride=%d", sc.Stride)
	}
	fmt.Fprintf(w, " seed=%d", sc.Seed)
	for _, c := range Coords[1:] {
		if v := c.Get(&sc); c.Kind == CoordOption && v != "" {
			fmt.Fprintf(w, " %s=%s", c.Axis, v)
		}
	}
	fmt.Fprintln(w)
	if r.Detail != "" {
		fmt.Fprintf(w, "verdict: %s (%s)\n", r.Verdict, r.Detail)
	} else {
		fmt.Fprintf(w, "verdict: %s\n", r.Verdict)
	}
	if c := r.Checks; c != nil {
		fmt.Fprintf(w, "checks:")
		if c.Linearizable != nil {
			fmt.Fprintf(w, " linearizable=%v", *c.Linearizable)
		}
		if c.WeaklyConsistent != nil {
			fmt.Fprintf(w, " weakly-consistent=%v", *c.WeaklyConsistent)
		}
		if c.MinT != nil {
			fmt.Fprintf(w, " MinT=%d", *c.MinT)
		}
		if c.ReplayIdentical != nil {
			fmt.Fprintf(w, " replay-identical=%v", *c.ReplayIdentical)
		}
		fmt.Fprintln(w)
	}
	if t := r.Trend; t != nil {
		fmt.Fprintf(w, "trend: %s final-MinT=%d slope=%.4f windows=%d",
			t.Trend, t.FinalMinT, t.Slope, t.Windows)
		if t.Undecided > 0 {
			fmt.Fprintf(w, " undecided=%d", t.Undecided)
		}
		fmt.Fprintln(w)
	}
	if e := r.Explore; e != nil {
		fmt.Fprintf(w, "explored: nodes=%d leaves=%d truncated=%v", e.Nodes, e.Leaves, e.Truncated)
		if e.Deduped > 0 {
			fmt.Fprintf(w, " deduped=%d", e.Deduped)
		}
		fmt.Fprintln(w)
	}
	if v := r.Valency; v != nil {
		fmt.Fprintf(w, "valency: root=%v multivalent=%d univalent=%d critical=%d agreement-violations=%d truncated=%v\n",
			v.RootValence, v.Multivalent, v.Univalent, v.Criticals, v.AgreementViolations, v.Truncated)
	}
	if s := r.Stable; s != nil {
		fmt.Fprintf(w, "stable: depth=%d t=%d searched=%d verify-nodes=%d verify-leaves=%d\n",
			s.Depth, s.T, s.NodesSearched, s.VerifyNodes, s.VerifyLeaves)
	}
	if p := r.Perf; p != nil {
		if r.Engine == "sim" {
			fmt.Fprintf(w, "run: steps=%d timedout=%v ops=%d events=%d\n",
				p.Steps, p.TimedOut, p.Ops, p.Events)
		} else {
			fmt.Fprintf(w, "run: ops=%d events=%d", p.Ops, p.Events)
			if p.NS > 0 {
				fmt.Fprintf(w, " ns=%d throughput=%.0f/s p50=%dns p95=%dns p99=%dns",
					p.NS, p.ThroughputOpsS, p.P50NS, p.P95NS, p.P99NS)
			}
			if p.Overloaded {
				fmt.Fprintf(w, " overloaded sample-every=%d skipped=%d escalations=%d",
					p.MonSampleEvery, p.MonWindowsSkipped, p.MonEscalations)
			} else if p.MonWindowsSkipped > 0 {
				fmt.Fprintf(w, " skipped=%d", p.MonWindowsSkipped)
			}
			fmt.Fprintln(w)
		}
	}
	if n := r.Net; n != nil {
		fmt.Fprintf(w, "net: clients=%d retries=%d reconnects=%d refused=%d lost=%d duplicated=%d\n",
			n.Clients, n.Retries, n.Reconnects, n.Refused, n.Lost, n.Duplicated)
	}
	if rc := r.Recovery; rc != nil {
		fmt.Fprintf(w, "recovery: frames=%d", rc.Frames)
		if rc.Torn {
			fmt.Fprintf(w, " torn@%d", rc.TornAt)
		}
		fmt.Fprintf(w, " events=%d commits=%d", rc.RecoveredEvents, rc.RecoveredCommits)
		if rc.PendingOps > 0 {
			fmt.Fprintf(w, " pending=%d", rc.PendingOps)
		}
		fmt.Fprintf(w, " resumed-seq=%d continued-ops=%d stitched-events=%d\n",
			rc.ResumedSeq, rc.ContinuedOps, rc.StitchedEvents)
	}
	if f := r.Fuzz; f != nil {
		fmt.Fprintf(w, "fuzz: runs=%d total-ops=%d found=%v", f.Runs, f.TotalOps, f.Found)
		if f.Found {
			fmt.Fprintf(w, " seed=%d", f.Seed)
		}
		fmt.Fprintln(w)
	}
	if wi := r.Witness; wi != nil {
		if wi.Shrunk != nil {
			fmt.Fprintf(w, "shrunk to %d ops in %d trials; sim replay diverged=%v\n",
				wi.Shrunk.Ops, wi.Shrunk.Trials, wi.Shrunk.SimDiverged)
			if wi.Shrunk.SimDiverged {
				fmt.Fprintf(w, "sim: p%d %s got %d, model permits %v\n",
					wi.Shrunk.Proc, wi.Shrunk.Op, wi.Shrunk.Got, wi.Shrunk.Want)
			}
		}
		if wi.History != "" {
			fmt.Fprintln(w, "witness history:")
			fmt.Fprint(w, wi.History)
		}
	}
	return nil
}

// trendInfo converts a checker verdict, including its samples.
func trendInfo(v check.Verdict) *TrendInfo {
	t := &TrendInfo{
		Trend:     v.Trend.String(),
		FinalMinT: v.FinalMinT,
		Slope:     v.Slope,
		Undecided: v.Undecided,
	}
	for _, s := range v.Samples {
		t.Samples = append(t.Samples, TrendSample{Events: s.Events, MinT: s.MinT})
	}
	t.Windows = len(t.Samples)
	return t
}

func boolPtr(b bool) *bool { return &b }
func intPtr(v int) *int    { return &v }
