package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Stage names are the ROADMAP's vocabulary, so that the ledger a later change
// puts inside the program can reuse them. A run and a batch are containers:
// their self time is the part of the wall clock no stage accounts for.
const (
	spanRun   = "run"
	spanBatch = "batch"

	stageGenerate = "generate"
	stageApply    = "apply"
	stageRecord   = "record"
	stageMerge    = "merge"
	stageSink     = "sink"
	stageFold     = "fold"
	stageWindow   = "window-check"

	stageEncode = "encode"
	stageWrite  = "write"
	stageWait   = "wait"
	stageRead   = "read"
	stageDecode = "decode"

	stageWalk      = "walk"
	stageLeafCheck = "leaf-check"
)

// batchOps is how many operations (events, leaves) one in-process batch of
// spans covers; wireBatchOps is the same on the wire, where an operation
// costs a hundred times more.
const (
	batchOps     = 4096
	wireBatchOps = 8
)

// span is one timed interval: a stage's share of one batch, or a container.
// Times are nanoseconds since the traced run began. Where a stage runs once
// per item inside a batch (a window check, a leaf check, a wire stage), its
// span carries the time summed over the batch's items, laid end to end after
// the stage before it: its length is measured, its position is not.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Lane     int    `json:"lane"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // ID within the lane, -1 for the lane's root
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Items    int    `json:"items"`
}

// tracer records the spans of one goroutine (a lane), in memory. A tracer
// that is off takes no timestamp and records nothing: the staged re-drive
// runs once with it off and once with it on, and the difference is
// trace.overhead_pct.
type tracer struct {
	on       bool
	workload string
	lane     int
	epoch    time.Time
	spans    []span
}

func newTracers(on bool, workload string, lanes int) []*tracer {
	epoch := time.Now()
	ts := make([]*tracer, lanes)
	for i := range ts {
		ts[i] = &tracer{on: on, workload: workload, lane: i, epoch: epoch}
	}
	return ts
}

// now is nanoseconds since the traced run began.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its ID, or -1 when the tracer is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	return t.add(name, parent, t.now(), 0, 0)
}

// end closes a span opened by begin.
func (t *tracer) end(id, items int) {
	if !t.on {
		return
	}
	t.spans[id].End, t.spans[id].Items = t.now(), items
}

// add records a span of known length and returns its ID.
func (t *tracer) add(name string, parent int, start, length int64, items int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Workload: t.workload, Lane: t.lane, ID: id, Parent: parent,
		Start: start, End: start + length, Items: items,
	})
	return id
}

// chain lays summed stage times end to end under parent, from start.
func (t *tracer) chain(parent int, start int64, names []string, lengths []int64, items int) {
	for i, name := range names {
		t.add(name, parent, start, lengths[i], items)
		start += lengths[i]
	}
}

// ledger is what the spans of a traced run add up to.
type ledger struct {
	// WallNS sums the root span of every lane; SelfNS maps each span name to
	// its self time (its length minus its children's).
	WallNS int64            `json:"wall_ns"`
	SelfNS map[string]int64 `json:"self_ns"`
	Items  map[string]int   `json:"items"`
	// CoveragePct is the share of WallNS that falls in a stage and not in a
	// container.
	CoveragePct float64 `json:"coverage_pct"`
}

func account(lanes []*tracer) ledger {
	l := ledger{SelfNS: map[string]int64{}, Items: map[string]int{}}
	for _, t := range lanes {
		children := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				children[s.Parent] += s.End - s.Start
			} else {
				l.WallNS += s.End - s.Start
			}
		}
		for _, s := range t.spans {
			l.SelfNS[s.Name] += s.End - s.Start - children[s.ID]
			l.Items[s.Name] += s.Items
		}
	}
	if l.WallNS > 0 {
		staged := l.WallNS - l.SelfNS[spanRun] - l.SelfNS[spanBatch]
		l.CoveragePct = 100 * float64(staged) / float64(l.WallNS)
	}
	return l
}

// writeTrace writes the spans held in memory, and what they add up to, to
// trace-<workload>.json.
func writeTrace(dir, workload string, lanes []*tracer, l ledger) error {
	var spans []span
	for _, t := range lanes {
		spans = append(spans, t.spans...)
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Ledger   ledger `json:"ledger"`
		Spans    []span `json:"spans"`
	}{workload, l, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
