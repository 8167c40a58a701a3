package base

import (
	"reflect"
	"testing"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/spec"
)

func TestAtomicSnapshotRestore(t *testing.T) {
	a, err := NewAtomic("C", spec.NewObject(spec.FetchInc{}))
	if err != nil {
		t.Fatal(err)
	}
	fi := spec.MakeOp(spec.MethodFetchInc)
	if err := a.Commit(0, fi, 0); err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	if err := a.Commit(1, fi, 1); err != nil {
		t.Fatal(err)
	}
	if a.State() != spec.IntState(2) || a.Steps() != 2 {
		t.Fatalf("state %v steps %d", a.State(), a.Steps())
	}
	a.Restore(snap)
	if a.State() != spec.IntState(1) || a.Steps() != 1 {
		t.Fatalf("restore: state %v steps %d", a.State(), a.Steps())
	}
	// The undone step must replay identically.
	cands, err := a.AppendCandidates(nil, 1, fi)
	if err != nil || len(cands) != 1 || cands[0] != 1 {
		t.Fatalf("candidates after restore: %v %v", cands, err)
	}
}

func TestEventualSnapshotRestore(t *testing.T) {
	e, err := NewEventual("R", spec.NewObject(spec.Register{}), Never{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w1 := spec.MakeOp1(spec.MethodWrite, 1)
	w2 := spec.MakeOp1(spec.MethodWrite, 2)
	read := spec.MakeOp(spec.MethodRead)
	if err := e.Commit(0, w1, 0); err != nil {
		t.Fatal(err)
	}
	before, err := e.AppendCandidates(nil, 1, read)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if err := e.Commit(1, w2, 0); err != nil {
		t.Fatal(err)
	}
	e.Restore(snap)
	if e.State() != spec.IntState(1) || e.Steps() != 1 {
		t.Fatalf("restore: state %v steps %d", e.State(), e.Steps())
	}
	after, err := e.AppendCandidates(nil, 1, read)
	if err != nil {
		t.Fatal(err)
	}
	// Restoring must also truncate the log: the Definition 1 candidate set
	// (computed against the log) must be exactly what it was.
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("candidates diverge after restore: %v vs %v", before, after)
	}
}

func TestSnapshotIsAllocationFree(t *testing.T) {
	a, err := NewAtomic("C", spec.NewObject(spec.CAS{}))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		snap := a.Snapshot()
		a.Restore(snap)
	})
	if allocs != 0 {
		t.Fatalf("Snapshot/Restore allocates %.1f per run", allocs)
	}
}

func TestObjectFingerprints(t *testing.T) {
	a, err := NewAtomic("C", spec.NewObject(spec.FetchInc{}))
	if err != nil {
		t.Fatal(err)
	}
	fp0 := string(a.AppendFingerprint(nil))
	if err := a.Commit(0, spec.MakeOp(spec.MethodFetchInc), 0); err != nil {
		t.Fatal(err)
	}
	if string(a.AppendFingerprint(nil)) == fp0 {
		t.Fatal("atomic fingerprint unchanged by a commit")
	}

	e, err := NewEventual("R", spec.NewObject(spec.Register{}), Never{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	efp0 := string(e.AppendFingerprint(nil))
	if err := e.Commit(0, spec.MakeOp1(spec.MethodWrite, 1), 0); err != nil {
		t.Fatal(err)
	}
	efp1 := string(e.AppendFingerprint(nil))
	if efp1 == efp0 {
		t.Fatal("eventual fingerprint unchanged by a commit")
	}
	// Two eventual objects with equal state/steps but different logs must
	// differ (their candidate sets differ).
	e2, err := NewEventual("R", spec.NewObject(spec.Register{}), Never{}, check.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Commit(1, spec.MakeOp1(spec.MethodWrite, 1), 0); err != nil {
		t.Fatal(err)
	}
	if string(e2.AppendFingerprint(nil)) == efp1 {
		t.Fatal("eventual fingerprints ignore the committing process")
	}
}
