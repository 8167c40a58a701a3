package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schema)
	}
	return &r, nil
}

// Verdicts of one workload × metric comparison.
const (
	diffOK         = "ok"
	diffUnresolved = "unresolved"
	diffRegression = "REGRESSION"
)

// judge compares metric d of one workload before (a) and after (b). It flags
// a regression only when the medians differ by more than the metric's bound
// and the two min–max ranges do not overlap; where either side's own spread
// exceeds the bound, or the medians differ by more than it inside overlapping
// ranges, the runs cannot say, and it answers unresolved.
func judge(d metricDef, a, b summary) (verdict string, worse float64) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / math.Abs(a.Median)
	} else if b.Median != 0 {
		worse = math.Inf(1)
	}
	if d.Better == "higher" {
		worse = -worse
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	spread := func(s summary) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Max - s.Min) / math.Abs(s.Median)
	}
	switch {
	case d.Bound == 0 && b.Max > a.Max: // failed_share: any rise
		return diffRegression, worse
	case worse > d.Bound && !overlap:
		return diffRegression, worse
	case worse > d.Bound, spread(a) > d.Bound, spread(b) > d.Bound:
		return diffUnresolved, worse
	}
	return diffOK, worse
}

// diffCommand is -diff a.json b.json: b is judged against a.
func diffCommand(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: -diff before.json after.json")
	}
	a, err := loadReport(args[0])
	if err != nil {
		return err
	}
	b, err := loadReport(args[1])
	if err != nil {
		return err
	}
	flagged, err := diffReports(os.Stdout, a, b)
	if err != nil {
		return err
	}
	if flagged > 0 {
		return fmt.Errorf("%d regression(s)", flagged)
	}
	return nil
}

func diffReports(w io.Writer, a, b *report) (flagged int, err error) {
	if a.Scale != b.Scale || a.Seconds != b.Seconds || a.Traced || b.Traced {
		return 0, fmt.Errorf("the two files are not end-to-end runs at one scale and length (scale %g vs %g, seconds %g vs %g)",
			a.Scale, b.Scale, a.Seconds, b.Seconds)
	}
	after := map[string]workloadReport{}
	for _, wr := range b.Workloads {
		after[wr.Name] = wr
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbefore\tafter\tworse%\tbound%\tverdict\t")
	for _, wa := range a.Workloads {
		wb, ok := after[wa.Name]
		if !ok {
			return flagged, fmt.Errorf("workload %s is missing from the second file", wa.Name)
		}
		for _, d := range endToEnd {
			sa, inA := wa.Metrics[d.Name]
			sb, inB := wb.Metrics[d.Name]
			if !inA && !inB {
				continue
			}
			if inA != inB {
				return flagged, fmt.Errorf("%s %s is in one file only", wa.Name, d.Name)
			}
			verdict, worse := judge(d, sa, sb)
			if verdict == diffRegression {
				flagged++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f\t%.0f\t%s\t\n",
				wa.Name, d.Name, sa.Median, sb.Median, 100*worse, 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	return flagged, nil
}
