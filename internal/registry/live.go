package registry

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/passthrough"
	"github.com/elin-go/elin/internal/core/stablog"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/spec"
)

// LiveObjectNames lists the live-native object names. Every implementation
// name accepted by Impl also resolves through LiveObject, wrapped in the
// mutex-serialized step-machine adapter.
func LiveObjectNames() []string {
	return []string{
		"atomic-fi[:init]", "el-fi[:init]", "junk-fi:K", "mutex-fi[:init]", "mutex-reg[:init]",
		"slog-fi[:K]",
	}
}

// LiveObject resolves an object for the live concurrent runtime.
//
// Live-native objects:
//
//	atomic-fi[:init]   lock-free fetch&increment (one atomic fetch-add)
//	mutex-fi[:init]    passthrough over an atomic counter, mutex-serialized
//	mutex-reg[:init]   passthrough over an atomic register, mutex-serialized
//	el-fi[:init]       passthrough over an eventually linearizable counter,
//	                   mutex-serialized (stabilization from policy, never
//	                   when nil)
//	junk-fi:K          injected bug: loses every increment past K
//	slog-fi[:K]        lock-free stabilizing-log counter, promotion batch K
//
// The stabilizing-log counter family (slog-counter, slog-batch:K) routes
// to the same lock-free fast path instead of the serialized step machine:
// an all-fetchinc log degenerates to the commit sequencer, so the fast
// path computes the identical speculation semantics with one atomic
// fetch-add per operation.
//
// Any other name resolves through Impl and runs as a mutex-serialized step
// machine (live.SerializedImpl), so the scenario vocabulary is identical
// across engines. clients is the number of goroutine clients the object
// will serve; policy governs eventually linearizable bases and seed pins
// their response choices.
func LiveObject(name string, clients int, policy base.Policy, seed int64, opts check.Options) (live.Object, error) {
	kind, arg, hasArg := strings.Cut(name, ":")
	argInt := func(def int64) (int64, error) {
		if !hasArg {
			return def, nil
		}
		v, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("registry: bad parameter %q in %q: %w", arg, name, err)
		}
		return v, nil
	}
	switch kind {
	case "atomic-fi":
		init, err := argInt(0)
		if err != nil {
			return nil, err
		}
		return live.NewAtomicFetchInc("C", init), nil
	case "mutex-fi", "mutex-reg", "el-fi":
		init, err := argInt(0)
		if err != nil {
			return nil, err
		}
		objName, obj := "C", spec.NewObject(spec.FetchInc{InitVal: init})
		if kind == "mutex-reg" {
			objName, obj = "R", spec.NewObject(spec.Register{InitVal: init})
		}
		eventual := kind == "el-fi"
		if eventual && policy == nil {
			policy = base.Never{}
		}
		return live.NewSerializedImpl(passthrough.New(objName, obj, eventual), clients, base.SamePolicy(policy), seed, opts)
	case "junk-fi":
		stick, err := argInt(32)
		if err != nil {
			return nil, err
		}
		return live.NewJunkFetchInc("C", stick), nil
	case "slog-fi", "slog-batch":
		batch, err := argInt(stablog.DefaultBatch)
		if err != nil {
			return nil, err
		}
		return live.NewSlogFetchInc("C", batch, clients)
	case "slog-counter":
		if hasArg {
			return nil, fmt.Errorf("registry: implementation %q takes no parameter (got %q in %q)", kind, arg, name)
		}
		return live.NewSlogFetchInc("C", stablog.DefaultBatch, clients)
	default:
		impl, err := Impl(name)
		if err != nil {
			return nil, fmt.Errorf("registry: %q is neither a live object (known: %s) nor an implementation: %w",
				name, strings.Join(LiveObjectNames(), ", "), err)
		}
		return live.NewSerializedImpl(impl, clients, base.SamePolicy(policy), seed, opts)
	}
}
