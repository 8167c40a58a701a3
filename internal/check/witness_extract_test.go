package check

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/elin-go/elin/internal/spec"
)

func TestLinearizationWitnessRegister(t *testing.T) {
	h := build(t).
		inv(0, "X", wr(1)).
		inv(1, "X", rd).
		res(0, 0).
		res(1, 1).h
	steps, ok, err := Linearization(regX["X"], h, 0, Options{})
	if err != nil || !ok {
		t.Fatalf("witness: %v %v", ok, err)
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	// The write must precede the read (the read returned 1).
	if steps[0].Op.Method != spec.MethodWrite || steps[1].Op.Method != spec.MethodRead {
		t.Fatalf("order: %v", steps)
	}
	if err := ValidateLinearization(regX["X"], h, 0, steps); err != nil {
		t.Fatalf("auditor rejected the witness: %v", err)
	}
	if !strings.Contains(FormatLinearization(steps), "write(1)") {
		t.Errorf("format: %q", FormatLinearization(steps))
	}
}

func TestLinearizationReassignsPrefixResponses(t *testing.T) {
	// Duplicate fetchinc responses: 3-linearizable with p0's op reassigned.
	h := build(t).
		inv(0, "X", fi).
		inv(1, "X", fi).
		res(0, 0).
		res(1, 0).h
	steps, ok, err := Linearization(fincX["X"], h, 3, Options{})
	if err != nil || !ok {
		t.Fatalf("witness: %v %v", ok, err)
	}
	reassigned := 0
	for _, s := range steps {
		if s.RespDiffers {
			reassigned++
		}
	}
	if reassigned != 1 {
		t.Fatalf("reassigned = %d, want 1\n%s", reassigned, FormatLinearization(steps))
	}
	if err := ValidateLinearization(fincX["X"], h, 3, steps); err != nil {
		t.Fatalf("auditor rejected: %v", err)
	}
}

func TestLinearizationAbsentForViolation(t *testing.T) {
	h := build(t).
		call(0, "X", wr(1), 0).
		call(1, "X", rd, 0).h
	_, ok, err := Linearization(regX["X"], h, 0, Options{})
	if err != nil || ok {
		t.Fatalf("witness for a violation: %v %v", ok, err)
	}
}

func TestLinearizationAgreesWithDecision(t *testing.T) {
	for _, opts := range []Options{{}, {NoMemo: true}} {
		r := rand.New(rand.NewSource(77))
		for trial := 0; trial < 40; trial++ {
			h := typeHistory(r, regX["X"], regOps, 3, 7, 0.4)
			for tt := 0; tt <= h.Len(); tt += 2 {
				dec, err := TLinearizable(regX["X"], h, tt, Options{})
				if err != nil {
					t.Fatal(err)
				}
				steps, ok, err := Linearization(regX["X"], h, tt, opts)
				if err != nil {
					t.Fatal(err)
				}
				if dec != ok {
					t.Fatalf("%+v trial %d t=%d: decision %v, witness %v", opts, trial, tt, dec, ok)
				}
				if ok {
					if err := ValidateLinearization(regX["X"], h, tt, steps); err != nil {
						t.Fatalf("%+v trial %d t=%d: bad witness: %v", opts, trial, tt, err)
					}
				}
			}
		}
	}
}

func TestValidateLinearizationRejects(t *testing.T) {
	h := build(t).
		call(0, "X", fi, 0).
		call(1, "X", fi, 1).h
	good, ok, err := Linearization(fincX["X"], h, 0, Options{})
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	// Swap the order: violates real-time (op0 precedes op1).
	bad := []LinStep{good[1], good[0]}
	if err := ValidateLinearization(fincX["X"], h, 0, bad); err == nil {
		t.Error("auditor accepted a real-time violation")
	}
	// Wrong response on a constrained op.
	bad2 := []LinStep{{OpIndex: 0, Proc: 0, Op: fi, Resp: 9}, good[1]}
	if err := ValidateLinearization(fincX["X"], h, 0, bad2); err == nil {
		t.Error("auditor accepted a wrong response")
	}
	// Duplicate op.
	bad3 := []LinStep{good[0], good[0]}
	if err := ValidateLinearization(fincX["X"], h, 0, bad3); err == nil {
		t.Error("auditor accepted a duplicate")
	}
	// Missing completed op.
	bad4 := []LinStep{good[0]}
	if err := ValidateLinearization(fincX["X"], h, 0, bad4); err == nil {
		t.Error("auditor accepted an incomplete witness")
	}
	// Out-of-range index.
	bad5 := []LinStep{{OpIndex: 7}}
	if err := ValidateLinearization(fincX["X"], h, 0, bad5); err == nil {
		t.Error("auditor accepted an out-of-range index")
	}
}
