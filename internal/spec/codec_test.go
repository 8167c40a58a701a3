package spec

import (
	"testing"
	"testing/quick"
)

func TestOpBytesRoundTrip(t *testing.T) {
	f := func(method string, nargs uint8, a, b int64, tail []byte) bool {
		op := Op{Method: method, NArgs: int(nargs % 3)}
		for i := 0; i < op.NArgs; i++ {
			op.Args[i] = []int64{a, b}[i]
		}
		enc := AppendOp(nil, op)
		got, n, err := DecodeOp(append(enc, tail...))
		return err == nil && got == op && n == len(enc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{
		nil,                                   // no method length
		{5, 'r', 'e', 'a', 'd'},               // method past the end
		{4, 'r', 'e', 'a', 'd'},               // no arg count
		{4, 'r', 'e', 'a', 'd', 3, 0, 0, 0},   // three args
		{5, 'w', 'r', 'i', 't', 'e', 1},       // arg missing
		{5, 'w', 'r', 'i', 't', 'e', 1, 0x80}, // arg cut short
	} {
		if op, _, err := DecodeOp(b); err == nil {
			t.Errorf("DecodeOp(%x) = %s, want an error", b, op)
		}
	}
}

// TestDecodeOpKnownMethodAllocs: decoding the operations the live runtime
// logs and sends allocates nothing (the method name is the constant, not a
// copy), and a name outside the table still round-trips.
func TestDecodeOpKnownMethodAllocs(t *testing.T) {
	for _, op := range []Op{MakeOp(MethodFetchInc), MakeOp(MethodRead), MakeOp1(MethodWrite, 1)} {
		b := AppendOp(nil, op)
		var got Op
		if n := testing.AllocsPerRun(100, func() { got, _, _ = DecodeOp(b) }); n != 0 {
			t.Errorf("decoding %s: %v allocs, want 0", op, n)
		}
		if got != op {
			t.Errorf("decoded %s as %s", op, got)
		}
	}
	if got, _, err := DecodeOp(AppendOp(nil, MakeOp("frobnicate"))); err != nil || got.Method != "frobnicate" {
		t.Errorf("unknown method decoded as %q, err %v", got.Method, err)
	}
}

func TestOpWordRoundTrip(t *testing.T) {
	f := func(kind uint8, arg int64) bool {
		arg %= 1 << 40
		var op Op
		switch kind % 5 {
		case 0:
			op = MakeOp(MethodFetchInc)
		case 1:
			op = MakeOp(MethodRead)
		case 2:
			op = MakeOp1(MethodWrite, arg)
		case 3:
			op = MakeOp(MethodTestSet)
		case 4:
			op = MakeOp1(MethodWriteMax, arg)
		}
		w, err := EncodeOpWord(op)
		if err != nil || w < 0 {
			return false
		}
		got, err := DecodeOpWord(w)
		return err == nil && got == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeOpWordRejectsUnknown(t *testing.T) {
	if _, err := EncodeOpWord(MakeOp1(MethodEnq, 1)); err == nil {
		t.Fatal("EncodeOpWord(enq) did not fail")
	}
	if _, err := EncodeOpWord(MakeOp1(MethodWrite, 1<<62)); err == nil {
		t.Fatal("EncodeOpWord(write(1<<62)) did not fail (out of encodable range)")
	}
	if _, err := DecodeOpWord(-1); err == nil {
		t.Fatal("DecodeOpWord(-1) did not fail")
	}
}
