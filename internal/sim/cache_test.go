package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/base"
	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/sim"
)

// sameNext compares sys's next action and candidates for every process that
// can step with those of a copy, whose caches start empty, so every answer
// of the copy comes from a fresh probe of the programme.
func sameNext(sys *sim.System) error {
	fresh := sys.Clone()
	for p := 0; p < sys.NumProcs(); p++ {
		if !sys.CanStep(p) {
			continue
		}
		act, begins, err := sys.NextAction(p)
		wantAct, wantBegins, wantErr := fresh.NextAction(p)
		if act != wantAct || begins != wantBegins || (err == nil) != (wantErr == nil) {
			return fmt.Errorf("p%d next action %v begins=%v err=%v, fresh copy %v begins=%v err=%v",
				p, act, begins, err, wantAct, wantBegins, wantErr)
		}
		cands, err := sys.Candidates(p)
		want, wantErr := fresh.Candidates(p)
		if !reflect.DeepEqual(cands, want) || (err == nil) != (wantErr == nil) {
			return fmt.Errorf("p%d candidates %v err=%v, fresh copy %v err=%v", p, cands, err, want, wantErr)
		}
	}
	return nil
}

// TestQuickNextActionMatchesFreshClone drives random Advance/Undo/UndoTo
// walks and checks the per-process next-action cache, which an Advance
// empties only for the process that moved and an Undo restores from its
// record, against a fresh probe after every step. Under policy never the
// eventually linearizable bases keep several candidates per step. An
// advance undone at once is the explorer's leaf: the Undo meets an entry
// nobody refilled. Rewound to the root, the history and configuration
// fingerprint are the root's.
func TestQuickNextActionMatchesFreshClone(t *testing.T) {
	for _, name := range []string{"cas-counter", "announced-junk", "localcopy-register", "slog-register", "el-register"} {
		t.Run(name, func(t *testing.T) {
			impl, err := registry.Impl(name)
			if err != nil {
				t.Fatal(err)
			}
			root, err := sim.NewSystem(impl, registry.Workload(impl, 2, 2), base.SamePolicy(base.Never{}), check.Options{}, false)
			if err != nil {
				t.Fatal(err)
			}
			rootFP, ok := root.Fingerprint()
			if !ok {
				t.Fatal("root has no fingerprint")
			}
			walk := func(seed int64) error {
				r := rand.New(rand.NewSource(seed))
				sys := root.Clone()
				sys.EnableUndo()
				depth := 0
				advance := func() error {
					enabled := sys.Enabled()
					p := enabled[r.Intn(len(enabled))]
					cands, err := sys.Candidates(p)
					if err != nil {
						return err
					}
					depth++
					return sys.Advance(p, r.Intn(len(cands)))
				}
				for i := 0; i < 80; i++ {
					var err error
					switch k := r.Intn(8); {
					case depth > 0 && k == 0:
						depth = r.Intn(depth)
						err = sys.UndoTo(depth)
					case depth > 0 && (k < 3 || sys.Done()):
						depth--
						err = sys.Undo()
					case sys.Done():
						continue
					case k < 5:
						if err = advance(); err == nil {
							depth--
							err = sys.Undo()
						}
					default:
						err = advance()
					}
					if err == nil {
						err = sameNext(sys)
					}
					if err != nil {
						return fmt.Errorf("seed %d step %d: %w", seed, i, err)
					}
				}
				if err := sys.UndoTo(0); err != nil {
					return err
				}
				if fp, _ := sys.Fingerprint(); fp != rootFP || sys.History().String() != root.History().String() {
					return fmt.Errorf("seed %d: rewound to fingerprint %x history %q, root %x %q",
						seed, fp, sys.History(), rootFP, root.History())
				}
				return nil
			}
			var failure error
			prop := func(seed int64) bool {
				failure = walk(seed)
				return failure == nil
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatalf("%v: %v", err, failure)
			}
		})
	}
}
