package elin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/elin-go/elin/internal/core/counter"
)

// TestFacadeEndToEnd drives the whole stack through the façade only: build
// a history, check it; run an implementation, check the recording.
func TestFacadeEndToEnd(t *testing.T) {
	// 1. Hand-built history checking.
	h := NewHistory()
	if err := h.Invoke(0, "X", MakeOp("fetchinc")); err != nil {
		t.Fatal(err)
	}
	if err := h.Invoke(1, "X", MakeOp("fetchinc")); err != nil {
		t.Fatal(err)
	}
	if err := h.Respond(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Respond(0, 1); err != nil {
		t.Fatal(err)
	}
	objs := map[string]Object{"X": NewObject(FetchInc{})}
	ok, err := Linearizable(objs, h, Options{})
	if err != nil || !ok {
		t.Fatalf("Linearizable = %v, %v", ok, err)
	}

	// 2. Simulation + MinT monitoring.
	res, err := Run(RunConfig{
		Impl:     counter.CAS{},
		Workload: UniformWorkload(2, 3, MakeOp("fetchinc")),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := TrackMinT(NewObject(FetchInc{}), res.History, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.FinalMinT != 0 {
		t.Fatalf("CAS counter MinT = %d", v.FinalMinT)
	}

	// 3. Exhaustive exploration through the façade.
	root, err := NewSystem(counter.CAS{}, UniformWorkload(2, 1, MakeOp("fetchinc")), nil, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	allLin, _, st, err := LinearizableEverywhere(root, 12, ExploreConfig{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !allLin || st.Leaves == 0 {
		t.Fatalf("exploration: lin=%v leaves=%d", allLin, st.Leaves)
	}
}

// TestFacadeScenario drives the declarative entry point through the
// façade: one Scenario value on every engine, one Report schema.
func TestFacadeScenario(t *testing.T) {
	s := Scenario{
		Impl:     "cas-counter",
		Workload: "uniform:inc",
		Procs:    2,
		Ops:      2,
		Seed:     1,
		Budget:   ScenarioBudget{Depth: 22},
	}
	for _, engine := range []string{"explore", "sim", "live", "serve"} {
		rep, err := RunScenario(engine, s)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !rep.OK() {
			t.Errorf("%s verdict = %s (%s)", engine, rep.Verdict, rep.Detail)
		}
	}
}

// TestFacadeNamesAreRead keeps the façade from regrowing: every name
// elin.go exports must be written as elin.<Name> in an example program,
// example_test.go or README.md.
func TestFacadeNamesAreRead(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "elin.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	var readers []byte
	for _, name := range append(files, "example_test.go", "README.md") {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		readers = append(append(readers, b...), '\n')
	}
	exported := 0
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, s := range g.Specs {
			var names []*ast.Ident
			switch s := s.(type) {
			case *ast.TypeSpec:
				names = []*ast.Ident{s.Name}
			case *ast.ValueSpec:
				names = s.Names
			}
			for _, id := range names {
				if !id.IsExported() {
					continue
				}
				exported++
				if !regexp.MustCompile(`\belin\.` + id.Name + `\b`).Match(readers) {
					t.Errorf("elin.%s is exported but no example or README.md reads it", id.Name)
				}
			}
		}
	}
	if exported == 0 {
		t.Fatal("found no exported names in elin.go")
	}
}
