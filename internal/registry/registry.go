// Package registry names the built-in implementations, schedulers,
// choosers and stabilization policies so that command-line tools can
// select them by string.
package registry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/announce"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/core/elconsensus"
	"github.com/elin-go/elin/internal/core/eltestset"
	"github.com/elin-go/elin/internal/core/localcopy"
	"github.com/elin-go/elin/internal/core/passthrough"
	"github.com/elin-go/elin/internal/core/stablog"
	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// Impl resolves an implementation by name. Parameterized names use a colon:
//
//	cas-counter            linearizable fetch&inc from CAS
//	sloppy-counter         register-only counter (weakly consistent, not EL)
//	warmup-counter:K       EL counter answering privately below count K
//	junk-counter           weak-consistency violator (announce-wrapper demo)
//	announced-junk         junk-counter wrapped in the Figure 1 algorithm
//	el-consensus           Proposition 16 consensus over EL registers
//	reg-consensus          the same algorithm over atomic registers
//	el-testset             communication-free EL test&set
//	cas-testset            linearizable test&set from CAS
//	el-register            passthrough over one EL register
//	localcopy-register     Theorem 12 local-copy of el-register
//	slog-counter           stabilizing-log counter (arXiv 1512.08258)
//	slog-register          stabilizing-log register
//	slog-testset           stabilizing-log test&set
//	slog-batch:K           stabilizing-log counter, promotion batch K
func Impl(name string) (machine.Impl, error) {
	base, arg, hasArg := strings.Cut(name, ":")
	ent, ok := implTable[base]
	if !ok {
		return nil, fmt.Errorf("registry: unknown implementation %q (known: %s)",
			name, strings.Join(ImplNames(), ", "))
	}
	if hasArg && ent.param == "" {
		return nil, fmt.Errorf("registry: implementation %q takes no parameter (got %q in %q)", base, arg, name)
	}
	argVal := ent.paramDef
	if hasArg {
		v, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("registry: bad parameter %q in %q: %w", arg, name, err)
		}
		argVal = v
	}
	return ent.make(argVal)
}

// implEntry is one implementation registration: the single source for
// resolution, name listing and parameter validation, so they cannot
// desynchronize.
type implEntry struct {
	// param annotates the parameter in listings ("K"); empty means the
	// name takes none and a stray ":x" is rejected.
	param string
	// paramDef is the parameter's default when omitted.
	paramDef int64
	// doc is the one-line description `elin list -detail` prints.
	doc string
	// make constructs the implementation (arg is paramDef for
	// parameterless entries).
	make func(arg int64) (machine.Impl, error)
}

func implOK(impl machine.Impl) func(int64) (machine.Impl, error) {
	return func(int64) (machine.Impl, error) { return impl, nil }
}

var implTable = map[string]implEntry{
	"cas-counter": {doc: "linearizable fetch&increment from one CAS word (retry loop)",
		make: implOK(counter.CAS{})},
	"sloppy-counter": {doc: "register-only counter: weakly consistent, never stabilizes",
		make: implOK(counter.Sloppy{})},
	"el-sloppy-counter": {doc: "sloppy counter over eventually linearizable registers",
		make: implOK(counter.Sloppy{EventualBases: true})},
	"warmup-counter": {param: "K", paramDef: 4, doc: "EL counter answering privately below count K, exact after",
		make: func(k int64) (machine.Impl, error) {
			return counter.Warmup{Threshold: k}, nil
		}},
	"junk-counter": {doc: "weak-consistency violator (announce-wrapper demo input)",
		make: implOK(counter.Junk{})},
	"announced-junk": {doc: "junk-counter wrapped in the Figure 1 announce/verify algorithm",
		make: implOK(announce.New(counter.Junk{}, check.Options{}))},
	"announced-cas": {doc: "cas-counter wrapped in the Figure 1 announce/verify algorithm",
		make: implOK(announce.New(counter.CAS{}, check.Options{}))},
	"el-consensus": {doc: "Proposition 16 consensus over eventually linearizable registers",
		make: implOK(elconsensus.Impl{})},
	"reg-consensus": {doc: "the Proposition 16 consensus algorithm over atomic registers",
		make: implOK(elconsensus.Impl{AtomicBases: true})},
	"el-testset": {doc: "communication-free eventually linearizable test&set",
		make: implOK(eltestset.Local{})},
	"cas-testset": {doc: "linearizable test&set from CAS",
		make: implOK(eltestset.FromCAS{})},
	"el-register": {doc: "passthrough over one eventually linearizable register",
		make: implOK(passthrough.New("el-register", spec.NewObject(spec.Register{}), true))},
	"localcopy-register": {doc: "Theorem 12 local-copy construction of el-register (diverges)",
		make: func(int64) (machine.Impl, error) {
			inner := passthrough.New("el-register", spec.NewObject(spec.Register{}), true)
			return localcopy.New(inner, 0)
		}},
	"base-consensus": {doc: "passthrough over one atomic consensus object",
		make: implOK(passthrough.New("base-consensus", spec.NewObject(spec.Consensus{}), false))},
	"slog-counter": {doc: "stabilizing-log counter (arXiv 1512.08258): speculate, promote every 4",
		make: func(int64) (machine.Impl, error) {
			return stablog.New("slog-counter", spec.NewObject(spec.FetchInc{}), stablog.DefaultBatch)
		}},
	"slog-register": {doc: "stabilizing-log register: speculative apply, stabilized prefix",
		make: func(int64) (machine.Impl, error) {
			return stablog.New("slog-register", spec.NewObject(spec.Register{}), stablog.DefaultBatch)
		}},
	"slog-testset": {doc: "stabilizing-log test&set",
		make: func(int64) (machine.Impl, error) {
			return stablog.New("slog-testset", spec.NewObject(spec.TestSet{}), stablog.DefaultBatch)
		}},
	"slog-batch": {param: "K", paramDef: stablog.DefaultBatch,
		doc: "stabilizing-log counter with promotion batch K (1 = linearizable)",
		make: func(k int64) (machine.Impl, error) {
			return stablog.New(fmt.Sprintf("slog-batch:%d", k), spec.NewObject(spec.FetchInc{}), k)
		}},
}

// ImplNames lists the registered implementation names (parameterized ones
// annotated as name:PARAM).
func ImplNames() []string {
	names := make([]string, 0, len(implTable))
	for n, ent := range implTable {
		if ent.param != "" {
			n += ":" + ent.param
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ImplDoc is one row of the implementation listing: the name (annotated
// name:PARAM when parameterized) and a one-line description.
type ImplDoc struct {
	Name string
	Doc  string
}

// ImplDocs lists every registered implementation with its parameter
// syntax and doc string, sorted by name — the `elin list -detail` view,
// drawn from the same table as Impl so the two cannot desynchronize.
func ImplDocs() []ImplDoc {
	docs := make([]ImplDoc, 0, len(implTable))
	for n, ent := range implTable {
		if ent.param != "" {
			n += ":" + ent.param
		}
		docs = append(docs, ImplDoc{Name: n, Doc: ent.doc})
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Name < docs[j].Name })
	return docs
}

// DefaultOp returns the operation a process of the named implementation
// performs, so tools can build uniform workloads: propose(p+1) for
// consensus, testset for test&set, fetchinc otherwise.
func DefaultOp(impl machine.Impl, p int) spec.Op {
	switch impl.Spec().Type.(type) {
	case spec.Consensus:
		return spec.MakeOp1(spec.MethodPropose, int64(p+1))
	case spec.TestSet:
		return spec.MakeOp(spec.MethodTestSet)
	case spec.Register:
		if p%2 == 0 {
			return spec.MakeOp1(spec.MethodWrite, int64(p+1))
		}
		return spec.MakeOp(spec.MethodRead)
	default:
		return spec.MakeOp(spec.MethodFetchInc)
	}
}

// Workload builds an ops-per-process workload using DefaultOp.
func Workload(impl machine.Impl, procs, ops int) [][]spec.Op {
	w := make([][]spec.Op, procs)
	for p := 0; p < procs; p++ {
		for k := 0; k < ops; k++ {
			w[p] = append(w[p], DefaultOp(impl, p))
		}
	}
	return w
}

// SchedulerNames lists the registered scheduler names.
func SchedulerNames() []string {
	return []string{"burst:N", "random", "rr", "solo:P"}
}

// Scheduler resolves a scheduler by name: "rr", "random", "solo:P",
// "burst:N".
func Scheduler(name string) (sim.Scheduler, error) {
	kind, arg, hasArg := strings.Cut(name, ":")
	switch kind {
	case "", "rr", "roundrobin":
		if hasArg {
			return nil, fmt.Errorf("registry: scheduler %q takes no parameter (got %q)", kind, arg)
		}
		return sim.RoundRobin{}, nil
	case "random":
		if hasArg {
			return nil, fmt.Errorf("registry: scheduler %q takes no parameter (got %q)", kind, arg)
		}
		return sim.Random{}, nil
	case "solo":
		p := 0
		if hasArg {
			v, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("registry: bad solo process %q: %w", arg, err)
			}
			p = v
		}
		return sim.Solo{P: p}, nil
	case "burst":
		n := 8
		if hasArg {
			v, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("registry: bad burst phase %q: %w", arg, err)
			}
			n = v
		}
		return sim.Burst{Phase: n}, nil
	default:
		return nil, fmt.Errorf("registry: unknown scheduler %q (known: %s)",
			name, strings.Join(SchedulerNames(), ", "))
	}
}

// ChooserNames lists the registered chooser names.
func ChooserNames() []string {
	return []string{"mix:P", "stale", "true"}
}

// Chooser resolves an eventually-linearizable response chooser by name:
// "true", "stale", "mix:P".
func Chooser(name string) (sim.Chooser, error) {
	kind, arg, hasArg := strings.Cut(name, ":")
	switch kind {
	case "", "true":
		if hasArg {
			return nil, fmt.Errorf("registry: chooser %q takes no parameter (got %q)", kind, arg)
		}
		return sim.TrueChooser{}, nil
	case "stale":
		if hasArg {
			return nil, fmt.Errorf("registry: chooser %q takes no parameter (got %q)", kind, arg)
		}
		return sim.StaleChooser{}, nil
	case "mix":
		p := 0.5
		if hasArg {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("registry: bad mix probability %q: %w", arg, err)
			}
			p = v
		}
		return sim.MixChooser{P: p}, nil
	default:
		return nil, fmt.Errorf("registry: unknown chooser %q (known: %s)",
			name, strings.Join(ChooserNames(), ", "))
	}
}

// PolicyNames lists the registered stabilization-policy names.
func PolicyNames() []string {
	return []string{"immediate", "never", "window:K"}
}

// Policy resolves a stabilization policy: "immediate", "never",
// "window:K".
func Policy(name string) (base.Policy, error) {
	kind, arg, hasArg := strings.Cut(name, ":")
	switch kind {
	case "", "immediate":
		if hasArg {
			return nil, fmt.Errorf("registry: policy %q takes no parameter (got %q)", kind, arg)
		}
		return base.Immediate(), nil
	case "never":
		if hasArg {
			return nil, fmt.Errorf("registry: policy %q takes no parameter (got %q)", kind, arg)
		}
		return base.Never{}, nil
	case "window":
		k := 4
		if hasArg {
			v, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("registry: bad window %q: %w", arg, err)
			}
			k = v
		}
		return base.Window{K: k}, nil
	default:
		return nil, fmt.Errorf("registry: unknown policy %q (known: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}

// TypeNames lists the registered specification-type names.
func TypeNames() []string {
	return []string{"cas[:init]", "consensus", "fetchinc[:init]", "maxregister[:init]",
		"queue", "register[:init]", "testset"}
}

// TypeByName resolves a specification type: "register[:init]",
// "fetchinc[:init]", "consensus", "testset", "cas[:init]", "queue",
// "maxregister[:init]".
func TypeByName(name string) (spec.Object, error) {
	kind, arg, hasArg := strings.Cut(name, ":")
	initVal := int64(0)
	if hasArg {
		v, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return spec.Object{}, fmt.Errorf("registry: bad initial value %q in %q: %w", arg, name, err)
		}
		initVal = v
	}
	switch kind {
	case "register":
		return spec.Object{Type: spec.Register{InitVal: initVal}, Init: initVal}, nil
	case "fetchinc":
		return spec.Object{Type: spec.FetchInc{InitVal: initVal}, Init: initVal}, nil
	case "consensus", "testset", "queue":
		if hasArg {
			return spec.Object{}, fmt.Errorf("registry: type %q takes no initial value (got %q)", kind, arg)
		}
		switch kind {
		case "consensus":
			return spec.NewObject(spec.Consensus{}), nil
		case "testset":
			return spec.NewObject(spec.TestSet{}), nil
		}
		return spec.NewObject(spec.Queue{}), nil
	case "cas":
		return spec.Object{Type: spec.CAS{InitVal: initVal}, Init: initVal}, nil
	case "maxregister":
		return spec.Object{Type: spec.MaxRegister{InitVal: initVal}, Init: initVal}, nil
	default:
		return spec.Object{}, fmt.Errorf("registry: unknown type %q (known: %s)",
			name, strings.Join(TypeNames(), ", "))
	}
}
