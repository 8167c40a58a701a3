package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
)

// schema names the shape of result.json.
const schema = "elin/bench/v1"

// host is what the numbers were measured on.
type host struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	// WALFilesystem is the type of the filesystem under the directory the
	// durable workload writes its logs to.
	WALFilesystem string `json:"wal_filesystem"`
	Commit        string `json:"commit"`
}

// workloadReport is one workload's metrics over the full run's repetitions.
type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Rounds    []int              `json:"rounds"`
	Metrics   map[string]summary `json:"metrics"`
}

// report is result.json: what the full run prints, for -diff to compare.
type report struct {
	Schema    string           `json:"schema"`
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Scale     float64          `json:"scale"`
	Seconds   float64          `json:"seconds"`
	Reps      int              `json:"reps"`
	Traced    bool             `json:"traced"`
	Workloads []workloadReport `json:"workloads"`
}

func fingerprint(dir string) host {
	h := host{
		CPU: "unknown", Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Kernel: "unknown", WALFilesystem: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		h.WALFilesystem = filesystemName(int64(st.Type))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// filesystemName names the statfs magic numbers a log is likely to sit on.
func filesystemName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

// runAll is the full run: every workload, -reps times each, one process per
// repetition so that peak_rss_mb belongs to one workload. It prints every
// metric by name and writes the same to result.json (result-traced.json for
// the traced run).
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	rep := report{
		Schema: schema, Host: fingerprint(o.out), Seed: o.seed, Scale: o.scale,
		Seconds: o.seconds, Reps: o.reps, Traced: o.trace == 1,
	}
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	failed := false
	for _, def := range workloads {
		wr := workloadReport{Name: def.name, Why: def.why, Correct: true, Metrics: map[string]summary{}}
		samples := map[string][]float64{}
		for i := 0; i < o.reps; i++ {
			fmt.Fprintf(os.Stderr, "bench: %s %d/%d\n", def.name, i+1, o.reps)
			res, err := runChild(self, def.name, o)
			if err != nil {
				return fmt.Errorf("%s: %w", def.name, err)
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Rounds = append(wr.Rounds, res.Rounds)
			for _, vs := range []values{res.Metrics, res.Extra} {
				for name, v := range vs {
					samples[name] = append(samples[name], v.Value)
				}
			}
		}
		for name, xs := range samples {
			d, _ := metricByName(defs, name)
			wr.Metrics[name] = summarize(d.Unit, xs)
		}
		failed = failed || !wr.Correct
		rep.Workloads = append(rep.Workloads, wr)
	}
	printReport(os.Stdout, rep, defs)
	name := "result.json"
	if rep.Traced {
		name = "result-traced.json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if failed {
		return errIncorrect
	}
	return nil
}

// runChild re-executes this program for one run of one workload and reads
// its detail and result lines back.
func runChild(self, workload string, o options) (*result, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-scale", fmt.Sprint(o.scale), "-out", o.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	res, perr := parseChild(out)
	if perr != nil {
		if err != nil {
			return nil, err
		}
		return nil, perr
	}
	return res, nil // a run that printed correct: false exits 1 and is reported, not dropped
}

func parseChild(out []byte) (*result, error) {
	var res result
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			var d detail
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				return nil, fmt.Errorf("detail line: %w", err)
			}
			res.Rounds, res.Extra, res.Err = d.Rounds, d.Extra, d.Err
		} else if line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	return &res, nil
}

func printReport(w io.Writer, rep report, defs []metricDef) {
	h := rep.Host
	fmt.Fprintf(w, "host: %s, %d cores, GOMAXPROCS %d, %s, linux %s, wal on %s, commit %s\n",
		h.CPU, h.Cores, h.GOMAXPROCS, h.Go, h.Kernel, h.WALFilesystem, h.Commit)
	fmt.Fprintf(w, "seed %d, scale %g, %g s per run, %d runs per workload\n\n", rep.Seed, rep.Scale, rep.Seconds, rep.Reps)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tmin\tmax\tcv%\tn\t")
	for _, wr := range rep.Workloads {
		for _, d := range defs {
			s, ok := wr.Metrics[d.Name]
			if !ok {
				continue // not a metric of this workload: omitted, never 0
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.2f\t%d\t\n",
				wr.Name, d.Name, d.Unit, s.Median, s.Min, s.Max, 100*s.CV, s.N)
		}
		if !wr.Correct {
			fmt.Fprintf(tw, "%s\tFAILED the correctness gate\t\t\t\t\t\t\t\n", wr.Name)
		}
	}
	tw.Flush()
}
