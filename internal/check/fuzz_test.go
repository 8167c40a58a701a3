package check

import (
	"testing"
	"testing/quick"
)

// checkMonitorSpec is FuzzParseMonitorSpec's property on s: the parser never
// panics, and a spec it accepts prints as a spelling that parses back to it.
func checkMonitorSpec(t *testing.T, s string) {
	t.Helper()
	ms, err := ParseMonitorSpec(s)
	if err != nil {
		return
	}
	if again, err := ParseMonitorSpec(ms.String()); err != nil || again != ms {
		t.Fatalf("%q parses to %+v, whose String %q parses to %+v (err %v)", s, ms, ms.String(), again, err)
	}
}

// FuzzParseMonitorSpec: arbitrary strings as a -monitor value. The seed
// corpus is testdata/fuzz/FuzzParseMonitorSpec.
func FuzzParseMonitorSpec(f *testing.F) {
	f.Fuzz(checkMonitorSpec)
}

// The fuzz body in tier-1, on strings spelled from the grammar's own tokens
// (random bytes would almost never parse).
func TestQuickParseMonitorSpecBody(t *testing.T) {
	tokens := []string{"", "full", "none", "sample", "shard", ":", "0", "1", "8", "+2", "-3", " ", "9223372036854775808"}
	f := func(a, b, c uint8) bool {
		checkMonitorSpec(t, tokens[int(a)%len(tokens)]+tokens[int(b)%len(tokens)]+tokens[int(c)%len(tokens)])
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
