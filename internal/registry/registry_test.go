package registry

import (
	"testing"

	"github.com/elin-go/elin/internal/machine"
	"github.com/elin-go/elin/internal/spec"
)

func TestImplResolvesAllNames(t *testing.T) {
	names := []string{
		"cas-counter", "sloppy-counter", "el-sloppy-counter", "warmup-counter:3",
		"warmup-counter", "junk-counter", "announced-junk", "announced-cas",
		"el-consensus", "reg-consensus", "el-testset", "cas-testset",
		"el-register", "localcopy-register", "base-consensus",
	}
	for _, name := range names {
		impl, err := Impl(name)
		if err != nil {
			t.Errorf("Impl(%q): %v", name, err)
			continue
		}
		if err := machine.Validate(impl, 2); err != nil {
			t.Errorf("Impl(%q) invalid: %v", name, err)
		}
	}
}

func TestImplErrors(t *testing.T) {
	for _, name := range []string{"nosuch", "warmup-counter:abc", ""} {
		if _, err := Impl(name); err == nil {
			t.Errorf("Impl(%q) accepted", name)
		}
	}
}

func TestImplNamesSorted(t *testing.T) {
	names := ImplNames()
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestDefaultOpAndWorkload(t *testing.T) {
	cons, err := Impl("el-consensus")
	if err != nil {
		t.Fatal(err)
	}
	if op := DefaultOp(cons, 2); op.Method != spec.MethodPropose || op.Args[0] != 3 {
		t.Errorf("consensus default op = %v", op)
	}
	ts, err := Impl("el-testset")
	if err != nil {
		t.Fatal(err)
	}
	if op := DefaultOp(ts, 0); op.Method != spec.MethodTestSet {
		t.Errorf("testset default op = %v", op)
	}
	reg, err := Impl("el-register")
	if err != nil {
		t.Fatal(err)
	}
	if op := DefaultOp(reg, 0); op.Method != spec.MethodWrite {
		t.Errorf("register p0 default op = %v", op)
	}
	if op := DefaultOp(reg, 1); op.Method != spec.MethodRead {
		t.Errorf("register p1 default op = %v", op)
	}
	cnt, err := Impl("cas-counter")
	if err != nil {
		t.Fatal(err)
	}
	w := Workload(cnt, 3, 2)
	if len(w) != 3 || len(w[1]) != 2 || w[1][0].Method != spec.MethodFetchInc {
		t.Errorf("workload = %v", w)
	}
}

func TestScheduler(t *testing.T) {
	for _, name := range []string{"", "rr", "roundrobin", "random", "solo", "solo:2", "burst", "burst:16"} {
		s, err := Scheduler(name)
		if err != nil || s == nil {
			t.Errorf("Scheduler(%q): %v", name, err)
		}
	}
	for _, name := range []string{"zap", "solo:x", "burst:x"} {
		if _, err := Scheduler(name); err == nil {
			t.Errorf("Scheduler(%q) accepted", name)
		}
	}
}

func TestChooser(t *testing.T) {
	for _, name := range []string{"", "true", "stale", "mix", "mix:0.3"} {
		c, err := Chooser(name)
		if err != nil || c == nil {
			t.Errorf("Chooser(%q): %v", name, err)
		}
	}
	for _, name := range []string{"zap", "mix:x"} {
		if _, err := Chooser(name); err == nil {
			t.Errorf("Chooser(%q) accepted", name)
		}
	}
}

func TestPolicy(t *testing.T) {
	for _, name := range []string{"", "immediate", "never", "window", "window:9"} {
		p, err := Policy(name)
		if err != nil || p == nil {
			t.Errorf("Policy(%q): %v", name, err)
		}
	}
	p, err := Policy("window:9")
	if err != nil {
		t.Fatal(err)
	}
	if p.Stabilized(8) || !p.Stabilized(9) {
		t.Error("window:9 boundary wrong")
	}
	for _, name := range []string{"zap", "window:x"} {
		if _, err := Policy(name); err == nil {
			t.Errorf("Policy(%q) accepted", name)
		}
	}
}

func TestTypeByName(t *testing.T) {
	cases := []struct {
		name string
		typ  string
		init spec.State
	}{
		{"register", "register", spec.IntState(0)},
		{"register:7", "register", spec.IntState(7)},
		{"fetchinc:3", "fetchinc", spec.IntState(3)},
		{"consensus", "consensus", spec.IntState(spec.NoValue)},
		{"testset", "testset", spec.IntState(0)},
		{"cas:2", "cas", spec.IntState(2)},
		{"queue", "queue", spec.StringState("")},
		{"maxregister:5", "maxregister", spec.IntState(5)},
	}
	for _, tc := range cases {
		obj, err := TypeByName(tc.name)
		if err != nil {
			t.Errorf("TypeByName(%q): %v", tc.name, err)
			continue
		}
		if obj.Type.Name() != tc.typ {
			t.Errorf("TypeByName(%q) type = %s", tc.name, obj.Type.Name())
		}
		if obj.Init != tc.init {
			t.Errorf("TypeByName(%q) init = %v, want %v", tc.name, obj.Init, tc.init)
		}
	}
	for _, name := range []string{"zap", "register:x"} {
		if _, err := TypeByName(name); err == nil {
			t.Errorf("TypeByName(%q) accepted", name)
		}
	}
}
