package faults

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// sorted is v with every list sorted by its elements' spelling: Parse keeps
// the order the directives came in and String writes them in canonical
// order, so a round trip is the identity up to that order.
func sorted[T fmt.Stringer](v []T) []T {
	v = slices.Clone(v)
	slices.SortFunc(v, func(a, b T) int { return cmp.Compare(a.String(), b.String()) })
	return v
}

// roundTrips holds one grammar to the fuzz targets' property on text: parse
// never panics, and a spec it accepts prints as its canonical spelling,
// which parses to the same spec and prints the same again; the directives
// in reverse order print the same too.
func roundTrips[S fmt.Stringer](t *testing.T, text string, parse func(string) (S, error), same func(a, b S) bool) {
	t.Helper()
	v, err := parse(text)
	if err != nil {
		return
	}
	again, err := parse(v.String())
	if err != nil || !same(v, again) || again.String() != v.String() {
		t.Fatalf("%q parses to %v, whose String %q parses to %v (err %v)", text, v, v.String(), again, err)
	}
	dirs := strings.Split(text, ",")
	slices.Reverse(dirs)
	if rev, err := parse(strings.Join(dirs, ",")); err != nil || rev.String() != v.String() {
		t.Fatalf("%q prints as %q, its directives reversed as %v (err %v)", text, v, rev, err)
	}
}

func checkParse(t *testing.T, text string) {
	roundTrips(t, text, Parse, func(a, b *Spec) bool {
		if a == nil || b == nil {
			return a == b
		}
		return reflect.DeepEqual(sorted(a.Stalls), sorted(b.Stalls)) && a.CrashAtCommit == b.CrashAtCommit &&
			a.JitterMax == b.JitterMax && reflect.DeepEqual(a.Corrupt, b.Corrupt)
	})
}

func checkParseNet(t *testing.T, text string) {
	roundTrips(t, text, ParseNet, func(a, b *NetSpec) bool {
		if a == nil || b == nil {
			return a == b
		}
		return reflect.DeepEqual(sorted(a.Drops), sorted(b.Drops)) && reflect.DeepEqual(sorted(a.Slows), sorted(b.Slows)) &&
			reflect.DeepEqual(a.Partition, b.Partition)
	})
}

// FuzzParse: arbitrary strings as a fault spec. The seed corpus is
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(checkParse)
}

// FuzzParseNet: arbitrary strings as a network fault spec. The seed corpus
// is testdata/fuzz/FuzzParseNet.
func FuzzParseNet(f *testing.F) {
	f.Fuzz(checkParseNet)
}

// spell joins one to six of the tokens picks names: a random string in a
// grammar's own vocabulary (random bytes would almost never parse).
func spell(tokens []string, picks [7]uint8) string {
	var b strings.Builder
	for _, p := range picks[1 : 2+picks[0]%6] {
		b.WriteString(tokens[int(p)%len(tokens)])
	}
	return b.String()
}

// The fuzz bodies in tier-1.
func TestQuickFuzzBodies(t *testing.T) {
	numbers := []string{"", "0", "1", "7", "-1", "+2", " ", "9223372036854775807", "18446744073709551615"}
	faults := append([]string{"stall:1@64+256", "stall:", "crash:", "jitter:", "flip", "flip:", "trunc:", "none", ",", "@", "+"}, numbers...)
	net := append([]string{"drop:0@40", "partition:", "slow:2:", "drop:", "none", ",", "@", "+", ":"}, numbers...)
	for _, leg := range []struct {
		tokens []string
		check  func(*testing.T, string)
	}{{faults, checkParse}, {net, checkParseNet}} {
		f := func(picks [7]uint8) bool {
			leg.check(t, spell(leg.tokens, picks))
			return !t.Failed()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
			t.Error(err)
		}
	}
}
