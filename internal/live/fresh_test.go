package live_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/wal"
)

// TestFresh pins Object.Fresh on every live object the registry names, and
// on a step-machine implementation: a distinct, pristine instance that
// reruns a recorded serial run byte for byte. An object whose Fresh fails
// makes Verify and Resume return the error instead of panicking.
func TestFresh(t *testing.T) {
	kinds := []string{"cas-counter"}
	for _, name := range registry.LiveObjectNames() {
		kind, _, _ := strings.Cut(name, "[")
		kind, _, _ = strings.Cut(kind, ":")
		kinds = append(kinds, kind)
	}
	pol, err := registry.Policy("window:50")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			obj, err := registry.LiveObject(kind, 2, pol, 7, check.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := registry.OpGenByName("default", obj.Spec())
			if err != nil {
				t.Fatal(err)
			}
			run := func(o live.Object) []byte {
				res, err := live.Run(live.Config{
					Object: o, Clients: 2, Ops: 100, Gen: gen, Seed: 7, Serial: true,
					MonitorSpec: check.MonitorSpec{Kind: check.MonitorNone},
				})
				if err != nil {
					t.Fatal(err)
				}
				if ok, err := live.Verify(obj, res.History); err != nil || !ok {
					t.Fatalf("Verify = %v, %v", ok, err)
				}
				return res.History.AppendFingerprint(nil)
			}
			first := run(obj)
			fresh, err := obj.Fresh()
			if err != nil {
				t.Fatal(err)
			}
			if fresh == obj {
				t.Fatal("Fresh returned the same instance")
			}
			if string(run(fresh)) != string(first) {
				t.Fatal("a fresh instance's rerun differs from the first run: Fresh is not pristine")
			}
		})
	}

	broken := freshFails{live.NewAtomicFetchInc("C", 0)}
	if _, err := live.Verify(broken, history.New()); !errors.Is(err, errFresh) {
		t.Errorf("Verify: err = %v, want the Fresh error", err)
	}
	if _, err := live.Resume(broken, &wal.Recovered{}); !errors.Is(err, errFresh) {
		t.Errorf("Resume: err = %v, want the Fresh error", err)
	}
}

var errFresh = errors.New("fresh instance cannot be built")

// freshFails is a working counter whose Fresh always fails.
type freshFails struct{ *live.AtomicFetchInc }

func (freshFails) Fresh() (live.Object, error) { return nil, errFresh }
