package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/etables.golden")

// renderAll renders every experiment under cfg, with E14's latency cells
// masked in the table: a latency's width sets its column's padding, so
// masking the rendered text would leave the layout moving.
func renderAll(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range All() {
		tab, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if e.ID == "E14" {
			for _, row := range tab.Rows {
				for _, c := range []int{2, 3, 4} { // fast path, generic engine, MinT
					if row[c] != "—" { // the generic engine's cap, not a timing
						row[c] = "<latency>"
					}
				}
			}
		}
		if err := tab.Render(&buf); err != nil {
			t.Fatalf("%s render: %v", e.ID, err)
		}
	}
	return buf.Bytes()
}

// TestETablesGolden pins every E-table: E1–E20 render to
// testdata/etables.golden at the default worker count and sequentially,
// apart from E14's latencies. After an intended change to a table, rewrite
// the file with go test ./internal/exp -run ETablesGolden -update.
func TestETablesGolden(t *testing.T) {
	path := filepath.Join("testdata", "etables.golden")
	got := renderAll(t, Config{})
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []byte
	}{{"default workers", got}, {"Workers: 1", renderAll(t, Config{Workers: 1})}} {
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s: E-tables differ from %s (rerun with -update after an intended change):\n%s",
				c.name, path, firstDiff(c.got, want))
		}
	}
}

// firstDiff returns the first line where got and want differ, with its
// number.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got:  %s\n want: %s", i+1, gl, wl)
		}
	}
	return ""
}
