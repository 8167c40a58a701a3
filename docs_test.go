package elin

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// designMaxLines caps DESIGN.md, so that the notes cannot quietly grow back
// into a history of the code: CHANGES.md and git keep that.
const designMaxLines = 1000

// declarations is what the Go files of the tree declare.
type declarations struct {
	files, tests []string        // .go paths; Test, Benchmark and Fuzz functions
	pkgs         map[string]bool // package names
	top          map[string]bool // "pkg.Name" of every top-level declaration and method
	types        map[string]bool // type names
	members      map[string]bool // "Type.Member": methods, fields, interface methods
}

// declare records the declarations of one parsed file of package pkg.
func (d *declarations) declare(pkg string, f *ast.File, test bool) {
	d.pkgs[pkg] = true
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			name := decl.Name.Name
			switch {
			case decl.Recv != nil:
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					d.members[id.Name+"."+name] = true
				}
				d.top[pkg+"."+name] = true // history.Truncate: the package's method
			case test && testFunc.MatchString(name):
				d.tests = append(d.tests, name)
			default:
				d.top[pkg+"."+name] = true
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					name := spec.Name.Name
					d.top[pkg+"."+name], d.types[name] = true, true
					var fields []*ast.Field
					switch t := spec.Type.(type) {
					case *ast.StructType:
						fields = t.Fields.List
					case *ast.InterfaceType:
						fields = t.Methods.List
					}
					for _, fl := range fields {
						for _, n := range fl.Names {
							d.members[name+"."+n.Name] = true
						}
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						d.top[pkg+"."+n.Name] = true
					}
				}
			}
		}
	}
}

var testFunc = regexp.MustCompile(`^(Test|Benchmark|Fuzz)`)

func exported(name string) bool { return unicode.IsUpper([]rune(name)[0]) }

// TestDocsCiteExistingCode holds DESIGN.md, EXPERIMENTS.md and README.md to
// the tree:
//   - every Test, Benchmark or Fuzz function and every .go file they name
//     exists; a name written as a family — followed by "*", or quoted as a
//     -bench or -run pattern — needs a function it begins;
//   - every backticked pkg.Name whose pkg is a package of the tree, and
//     every backticked Type.Member whose Type is declared in the tree, names
//     a declaration that exists (pkg.Type.Member checks both). Name and Type
//     are exported identifiers: a lower-case pkg.name such as
//     live.merge_ns_per_event is a benchmark metric, not code;
//   - DESIGN.md is at most designMaxLines lines.
func TestDocsCiteExistingCode(t *testing.T) {
	d := &declarations{pkgs: map[string]bool{}, top: map[string]bool{}, types: map[string]bool{}, members: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != ".":
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		d.files = append(d.files, filepath.ToSlash(path))
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		d.declare(strings.TrimSuffix(f.Name.Name, "_test"), f, strings.HasSuffix(path, "_test.go"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cited := regexp.MustCompile(`(['"]?)\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*?)|[\w./-]*\w\.go\b`)
	span := regexp.MustCompile("(?s)```.*?```|`[^`]+`")
	pointer := regexp.MustCompile(`\(\*(\w+)\)`)
	chain := regexp.MustCompile(`(?:^|[^\w./])(\w+(?:\.\w+)+)`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(text, []byte("\n")); doc == "DESIGN.md" && n > designMaxLines {
			t.Errorf("DESIGN.md is %d lines, more than %d", n, designMaxLines)
		}
		for _, m := range cited.FindAllStringSubmatch(string(text), -1) {
			name, family := m[2], m[1] != "" || m[3] != ""
			found := false
			for _, f := range d.tests {
				found = found || f == name || family && strings.HasPrefix(f, name)
			}
			if name == "" {
				name = m[0]
				for _, f := range d.files {
					found = found || f == name || strings.HasSuffix(f, "/"+name)
				}
			}
			if !found {
				t.Errorf("%s names %s, which is not in the tree", doc, name)
			}
		}
		for _, s := range span.FindAllString(string(text), -1) {
			s = pointer.ReplaceAllString(cited.ReplaceAllString(s, ""), "$1")
			for _, m := range chain.FindAllStringSubmatch(s, -1) {
				parts := strings.Split(m[1], ".")
				ok := true
				switch head := parts[0]; {
				case d.pkgs[head] && exported(parts[1]):
					ok = d.top[head+"."+parts[1]]
					if ok && len(parts) > 2 && d.types[parts[1]] {
						ok = d.members[parts[1]+"."+parts[2]]
					}
				case exported(head) && d.types[head]:
					ok = d.members[head+"."+parts[1]]
				}
				if !ok {
					t.Errorf("%s cites `%s`, which is not declared in the tree", doc, m[1])
				}
			}
		}
	}
}
