package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/scenario"
)

// FuzzLoadSpec feeds arbitrary bytes through the spec decoder, Validate
// and Expand: nothing may panic, and every spec that is accepted must
// expand to cells with pairwise-distinct identities — the property
// baseline diffing rests on. The corpus is seeded with every committed
// grid plus one spec per rejection path of the grid resolver.
func FuzzLoadSpec(f *testing.F) {
	committed, err := filepath.Glob("../../.github/sweeps/*.json")
	if err != nil || len(committed) == 0 {
		f.Fatalf("no committed sweep specs (%v)", err)
	}
	for _, path := range committed {
		if strings.HasSuffix(path, ".baseline.json") {
			continue // a campaign report, not a spec — and 130 kB of one
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema":"elin/sweep/v1","name":"rep","axes":{"faults":["jitter-light","jitter:3"]}}`))
	f.Add([]byte(`{"schema":"elin/sweep/v1","name":"gone","axes":{"engine":["sim","live"]},"exclude":[{"policy":"immediate"}]}`))
	f.Add([]byte(`{"schema":"elin/sweep/v1","name":"a"}{"schema":"elin/sweep/v1","name":"b"}`))
	f.Add([]byte(`{"schema":"elin/sweep/v1","name":"wild","axes":{"engine":["explore"],"monitor":["none","sample:2"],"wal-sync":["never"],"seed":[-1,1]},"exclude":[{"seed":-1,"monitor":"sample:02"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := decodeSpec(data)
		if err != nil {
			return
		}
		cells := 1
		for _, c := range scenario.Coords {
			if n := len(c.List(&sp.Axes)); n > 0 {
				cells *= n
			}
			if cells > 1<<12 {
				t.Skip("grid too large to enumerate per fuzz input")
			}
		}
		points, err := sp.Expand()
		if err != nil {
			return
		}
		seen := make(map[string]Point, len(points))
		for _, p := range points {
			id := sp.Scenario(p).CellID(p.Engine)
			if q, dup := seen[id]; dup {
				t.Fatalf("cells %+v and %+v share the identity %q", q, p, id)
			}
			seen[id] = p
		}
	})
}
