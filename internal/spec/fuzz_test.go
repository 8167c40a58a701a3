package spec

import (
	"strings"
	"testing"
	"testing/quick"
)

// checkParseOp is FuzzParseOp's property on s: ParseOp never panics, and an
// operation it accepts prints as a string that parses back to it.
func checkParseOp(t *testing.T, s string) {
	t.Helper()
	op, err := ParseOp(s)
	if err != nil {
		return
	}
	if again, err := ParseOp(op.String()); err != nil || again != op {
		t.Fatalf("%q parses to %+v, whose String %q parses to %+v (err %v)", s, op, op.String(), again, err)
	}
}

// FuzzParseOp: arbitrary strings as an operation. The seed corpus is
// testdata/fuzz/FuzzParseOp.
func FuzzParseOp(f *testing.F) {
	f.Fuzz(checkParseOp)
}

// The fuzz body in tier-1, on random strings spelled from the grammar's own
// tokens (random bytes would almost never parse).
func TestQuickFuzzBodies(t *testing.T) {
	tokens := []string{"", "write", "cas", "r)", "(", ")", ",", " ", "5", "-3", "+0",
		"9223372036854775807", "9223372036854775808", "x"}
	f := func(picks [6]uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(tokens[int(p)%len(tokens)])
		}
		checkParseOp(t, b.String())
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
