package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/spec"
)

// objFlags collects repeatable -obj NAME=TYPE[:init] specifications.
type objFlags map[string]spec.Object

func (o objFlags) String() string { return fmt.Sprintf("%d objects", len(o)) }

func (o objFlags) Set(v string) error {
	name, typ, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want NAME=TYPE, got %q", v)
	}
	obj, err := registry.TypeByName(typ)
	if err != nil {
		return err
	}
	o[name] = obj
	return nil
}

// runCheck is the recorded-history subcommand (the retired elcheck):
// linearizability, t-linearizability (Definition 2), MinT, weak
// consistency (Definition 1) and the MinT-trend classification. Histories
// are the compact text serialization or a JSON event array (-json); with
// no file argument, stdin is read.
func runCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("elin check", flag.ContinueOnError)
	objs := objFlags{}
	fs.Var(objs, "obj", "object spec NAME=TYPE[:init] (repeatable), e.g. X=fetchinc")
	mode := fs.String("mode", "lin", "check: lin | tlin | mint | mintlocal | weak | track | legal")
	tval := fs.Int("t", 0, "t for -mode tlin")
	stride := fs.Int("stride", 8, "prefix stride for -mode track")
	asJSON := fs.Bool("json", false, "input is a JSON event array")
	budget := fs.Int64("budget", 0, "search budget (0 = default)")
	witness := fs.Bool("witness", false, "print a witness linearization (modes tlin, mint)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(objs) == 0 {
		return fmt.Errorf("at least one -obj NAME=TYPE is required")
	}

	h, err := loadHistory(fs.Args(), *asJSON)
	if err != nil {
		return err
	}
	opts := check.Options{Budget: *budget}

	switch *mode {
	case "lin":
		ok, badObj, err := check.LinearizableExplain(objs, h, opts)
		if err != nil {
			return err
		}
		if ok {
			fmt.Fprintln(out, "linearizable: true")
			return nil
		}
		fmt.Fprintf(out, "linearizable: false (object %s)\n", badObj)
	case "tlin":
		obj, err := singleObject(objs, h)
		if err != nil {
			return err
		}
		ok, err := check.TLinearizable(obj, h, *tval, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d-linearizable: %v\n", *tval, ok)
		if ok && *witness {
			if err := printWitness(out, obj, h, *tval, opts); err != nil {
				return err
			}
		}
	case "mint":
		obj, err := singleObject(objs, h)
		if err != nil {
			return err
		}
		t, ok, err := check.MinT(obj, h, opts)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Fprintln(out, "MinT: none (not t-linearizable for any t)")
			return nil
		}
		fmt.Fprintf(out, "MinT: %d (of %d events)\n", t, h.Len())
		if *witness {
			if err := printWitness(out, obj, h, t, opts); err != nil {
				return err
			}
		}
	case "weak":
		ok, badOp, err := check.WeaklyConsistentExplain(objs, h, opts)
		if err != nil {
			return err
		}
		if ok {
			fmt.Fprintln(out, "weakly consistent: true")
			return nil
		}
		fmt.Fprintf(out, "weakly consistent: false (operation %s)\n", badOp)
	case "track":
		obj, err := singleObject(objs, h)
		if err != nil {
			return err
		}
		v, err := check.TrackMinT(obj, h, *stride, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trend: %s  final MinT: %s  slope: %.4f\n", v.Trend, mintText(v.FinalMinT), v.Slope)
		for _, s := range v.Samples {
			fmt.Fprintf(out, "  events %5d  MinT %5s\n", s.Events, mintText(s.MinT))
		}
	case "legal":
		ok, err := check.Legal(objs, h)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "legal sequential history: %v\n", ok)
	case "mintlocal":
		local, err := check.MinTLocal(objs, h, opts)
		if err != nil {
			return err
		}
		names := h.Objects()
		for _, name := range names {
			fmt.Fprintf(out, "t_%s = %s (of %d events in H|%s)\n",
				name, mintText(local[name]), h.ByObject(name).Len(), name)
		}
		lift, err := check.MinTGlobalUpper(objs, h, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "global MinT <= %s (Lemma 7 lift, of %d events)\n", mintText(lift), h.Len())
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	return nil
}

// mintText prints a MinT, or "none" for -1: no t works.
func mintText(t int) string {
	if t < 0 {
		return "none"
	}
	return fmt.Sprint(t)
}

func printWitness(out io.Writer, obj spec.Object, h *history.History, t int, opts check.Options) error {
	steps, ok, err := check.Linearization(obj, h, t, opts)
	if err != nil {
		return fmt.Errorf("witness extraction: %w", err)
	}
	if !ok {
		return fmt.Errorf("witness extraction disagreed with the decision procedure")
	}
	fmt.Fprintf(out, "witness %d-linearization:\n%s", t, check.FormatLinearization(steps))
	return nil
}

func singleObject(objs map[string]spec.Object, h *history.History) (spec.Object, error) {
	names := h.Objects()
	if len(names) != 1 {
		return spec.Object{}, fmt.Errorf("mode needs a single-object history, got %d objects", len(names))
	}
	obj, ok := objs[names[0]]
	if !ok {
		return spec.Object{}, fmt.Errorf("no -obj specification for %q", names[0])
	}
	return obj, nil
}

func loadHistory(args []string, asJSON bool) (*history.History, error) {
	var r io.Reader = os.Stdin
	if len(args) > 0 {
		f, err := os.Open(args[0])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	if asJSON {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		var h history.History
		if err := json.Unmarshal(data, &h); err != nil {
			return nil, err
		}
		return &h, nil
	}
	return history.ReadText(r)
}
