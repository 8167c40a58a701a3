package check

import (
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
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

// fuzzMonitorEvents turns bytes into a monitor stride and an event stream:
// byte 0 picks the stride (2..17), and each further pair of bytes is one
// event. The first byte of a pair holds the kind (bit 0), the process
// (bits 1-2), the object (bit 3: X or Y), the method (bit 4: fetchinc or
// read) and NArgs (bits 5-6, so 0..3 with 3 out of range); the second is the
// response, or both arguments.
func fuzzMonitorEvents(data []byte) (int, []history.Event) {
	if len(data) == 0 {
		return 2, nil
	}
	stride := 2 + int(data[0]%16)
	var events []history.Event
	for i := 1; i+1 < len(data); i += 2 {
		b, v := data[i], int64(data[i+1])
		e := history.Event{Kind: history.KindInvoke, Proc: int(b>>1) & 3, Obj: "X", Resp: v,
			Op: spec.Op{Method: spec.MethodFetchInc, Args: [2]int64{v, v}, NArgs: int(b>>5) & 3}}
		if b&1 != 0 {
			e.Kind = history.KindRespond
		}
		if b&8 != 0 {
			e.Obj = "Y"
		}
		if b&16 != 0 {
			e.Op.Method = spec.MethodRead
		}
		events = append(events, e)
	}
	return stride, events
}

// FuzzMonitorFeed: the monitor's operation table must refuse the first
// event a History-built window refuses, with the same words, and a window
// on two objects at its close. And Advance over the part of the stream a
// History accepts, in chunks the input's bytes size, must end as Feed over
// it does. The seed corpus is testdata/fuzz/FuzzMonitorFeed.
func FuzzMonitorFeed(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		stride, events := fuzzMonitorEvents(data)
		obj := spec.NewObject(spec.FetchInc{})
		feedLikeHistory(t, obj, stride, events)
		h := history.New()
		for _, e := range events {
			if h.Append(e) != nil {
				break
			}
		}
		k := 0
		feedThenAdvance(t, obj, IncrementalConfig{Stride: stride}, h, func() int {
			k++
			return 1 + int(data[k%len(data)]%32)
		})
	})
}
