package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// declared is BENCHMARK.json, the contract the driver reads.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredMatchesTables: BENCHMARK.json declares exactly what the tables
// in this package emit, inside the contract's limits.
func TestDeclaredMatchesTables(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) || len(d.Workloads) > 8 {
		t.Fatalf("%d workloads declared, %d in the table, at most 8 allowed", len(d.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside ^[A-Za-z0-9_.-]+$ or longer than 64", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range d.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is declared as %q, the table has %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef, limit int) {
		t.Helper()
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%d %s metrics declared, %d in the table, at most %d allowed", len(got), kind, len(want), limit)
		}
		for i, m := range got {
			name(m.Name)
			if m != want[i] {
				t.Errorf("%s metric %d is declared as %+v, the table has %+v", kind, i, m, want[i])
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
			}
			if m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("%s: bound %g is outside [0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	same("end-to-end", d.EndToEnd, endToEnd[:universal], 16)
	same("per-layer", d.PerLayer, perLayer, 128)
	if s, ok := metricByName(d.EndToEnd, "setup_s"); !ok || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s must be declared in s, lower is better")
	}
	if len(d.Paths) != 1 || d.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", d.Paths)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside [1, 60]", d.RunSeconds)
	}
}

func names(defs []metricDef) []string {
	ns := make([]string, len(defs))
	for i, d := range defs {
		ns[i] = d.Name
	}
	slices.Sort(ns)
	return ns
}

// TestSmoke runs every workload end to end and traced at a hundredth of its
// size: the gate passes, and the metric names emitted are exactly the ones
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	out := t.TempDir()
	for _, def := range workloads {
		e := env{seed: 1, scale: 0.01, tmp: out}
		res := runEndToEnd(def, e, 0)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d: %s", def.name, res.Correct, res.Attempted, res.Failed, res.Err)
		}
		if got, want := slices.Sorted(maps.Keys(res.Metrics)), names(d.EndToEnd); !slices.Equal(got, want) {
			t.Errorf("%s emits end-to-end metrics %v, BENCHMARK.json declares %v", def.name, got, want)
		}
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s is %g; an end-to-end metric is never 0", def.name, name, v.Value)
			}
		}
		for name := range res.Extra {
			if _, ok := metricByName(endToEnd, name); !ok {
				t.Errorf("%s: extra metric %s is not in the end-to-end table", def.name, name)
			}
		}

		res = runTraced(def, e, options{seconds: 10, out: out})
		if !res.Correct {
			t.Fatalf("%s traced: %s", def.name, res.Err)
		}
		if got, want := slices.Sorted(maps.Keys(res.Metrics)), names(d.PerLayer); !slices.Equal(got, want) {
			t.Errorf("%s emits per-layer metrics %v, BENCHMARK.json declares %v", def.name, got, want)
		}
		if c := res.Metrics["trace.coverage_pct"].Value; c < 90 {
			t.Errorf("%s: stages cover %.1f%% of the staged wall clock, want at least 90", def.name, c)
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+def.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", def.name, err)
		}
	}
}

// TestJudge pins the -diff rule: a regression needs medians apart by more
// than the bound and ranges that do not overlap.
func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	failed := metricDef{Name: "failed_share", Better: "lower"}
	s := func(min, med, max float64) summary { return summary{Min: min, Median: med, Max: max} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b summary
		want string
	}{
		{"inside the bound", lower, s(0.98, 1, 1.02), s(1.03, 1.05, 1.07), diffOK},
		{"apart and disjoint", lower, s(0.98, 1, 1.02), s(1.15, 1.2, 1.25), diffRegression},
		{"apart but overlapping", lower, s(0.9, 1, 1.2), s(1.1, 1.2, 1.3), diffUnresolved},
		{"own spread beyond the bound", lower, s(0.9, 1, 1.1), s(0.95, 1, 1.02), diffUnresolved},
		{"better is never a regression", lower, s(0.98, 1, 1.02), s(0.5, 0.5, 0.5), diffOK},
		{"higher is better", higher, s(98, 100, 102), s(70, 75, 80), diffRegression},
		{"higher and higher", higher, s(98, 100, 102), s(120, 125, 130), diffOK},
		{"any failure", failed, s(0, 0, 0), s(0, 0, 0.5), diffRegression},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judged %s, want %s", c.name, got, c.want)
		}
	}
}

// TestAccount: self time is a span's length minus its children's, and
// coverage is the share of the root that falls in stages.
func TestAccount(t *testing.T) {
	tr := &tracer{on: true, workload: "w"}
	run := tr.add(spanRun, -1, 0, 100, 0)
	b := tr.add(spanBatch, run, 10, 80, 0)
	tr.chain(b, 10, []string{stageFold, stageWindow}, []int64{30, 40}, 8)
	l := account([]*tracer{tr})
	if l.WallNS != 100 || l.SelfNS[spanRun] != 20 || l.SelfNS[spanBatch] != 10 || l.SelfNS[stageFold] != 30 || l.SelfNS[stageWindow] != 40 {
		t.Errorf("ledger %+v", l)
	}
	if l.CoveragePct != 70 {
		t.Errorf("coverage %g%%, want 70", l.CoveragePct)
	}
}
