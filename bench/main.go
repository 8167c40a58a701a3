// Command bench is the repository's benchmark: six named workloads, their
// end-to-end metrics, a correctness gate, and a separate traced run that
// prices every module from outside. See README.md.
//
//	bash bench/run.sh                         every workload, -reps times each
//	bash bench/run.sh -trace 1                the traced run of every workload
//	bash bench/run.sh -diff a.json b.json     compare two result files
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                          one run, one JSON result line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    float64
	reps     int
	out      string
	diff     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON result line")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 18, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics and span files); 0: end-to-end metrics")
	flag.Float64Var(&o.scale, "scale", 1, "scale of every input size; published numbers are scale 1 only")
	flag.IntVar(&o.reps, "reps", 3, "runs of each workload when none is named")
	flag.StringVar(&o.out, "out", defaultOut(), "directory for result.json, span files and temporary logs")
	flag.BoolVar(&o.diff, "diff", false, "compare two result files: -diff a.json b.json")
	flag.Parse()

	var err error
	switch {
	case o.diff:
		err = diffCommand(flag.Args())
	case o.workload != "":
		err = runOne(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultOut is bench/out, from the repository root or from bench/ itself.
func defaultOut() string {
	if _, err := os.Stat(filepath.Join("bench", "workloads.go")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// errIncorrect ends a run whose result line says correct: false.
var errIncorrect = fmt.Errorf("outputs incorrect")

// runOne is one run of one workload: detail for the full run, then the
// result line, last.
func runOne(o options) error {
	def, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := env{seed: o.seed, scale: o.scale, tmp: tmp}

	var res *result
	if o.trace == 1 {
		res = runTraced(def, e, o)
	} else {
		res = runEndToEnd(def, e, o.seconds)
	}
	if res.Err != "" {
		fmt.Fprintln(os.Stderr, "bench:", def.name+":", res.Err)
	}
	extra, err := json.Marshal(detail{res.Rounds, res.Walls, res.Extra, res.Err})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n%s\n", detailPrefix, extra, line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// detailPrefix marks the line before the result line that carries what the
// result line's fixed shape has no room for.
const detailPrefix = "detail: "

type detail struct {
	Rounds int       `json:"rounds"`
	Walls  []float64 `json:"round_wall_s,omitempty"`
	Extra  values    `json:"extra"`
	Err    string    `json:"error,omitempty"`
}
