package spec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// An operation has two decodable encodings, kept here so that no other
// package knows its layout. The byte encoding (AppendOp) carries any method
// in a commit-log event or a wire request. The word encoding (EncodeOpWord)
// packs a one-word method into the non-negative int64 a register or log
// entry holds, leaving negative values for NoValue.

// AppendOp appends the byte encoding of op to b: the method's length as a
// uvarint, the method, one byte of argument count, then each argument as a
// varint.
func AppendOp(b []byte, op Op) []byte {
	b = binary.AppendUvarint(b, uint64(len(op.Method)))
	b = append(b, op.Method...)
	b = append(b, byte(op.NArgs))
	for i := 0; i < op.NArgs; i++ {
		b = binary.AppendVarint(b, op.Args[i])
	}
	return b
}

// DecodeOp decodes the AppendOp encoding at the start of b and returns the
// operation and the number of bytes it read. A method this package names
// is returned as its constant, so decoding one allocates nothing; any other
// method is copied out of b.
func DecodeOp(b []byte) (Op, int, error) {
	bad := func(what string) (Op, int, error) {
		return Op{}, 0, errors.New("operation " + what)
	}
	mlen, n := binary.Uvarint(b)
	if n <= 0 || mlen > uint64(len(b)-n) {
		return bad("method length")
	}
	var op Op
	op.Method = methodName(b[n : n+int(mlen)])
	off := n + int(mlen)
	if off >= len(b) {
		return bad("arg count")
	}
	op.NArgs = int(b[off])
	off++
	if op.NArgs > len(op.Args) {
		return bad("arg count range")
	}
	for i := 0; i < op.NArgs; i++ {
		v, n := binary.Varint(b[off:])
		if n <= 0 {
			return bad("arg")
		}
		op.Args[i] = v
		off += n
	}
	return op, off, nil
}

// methods are the names DecodeOp shares instead of copying; the live
// runtime's own come first.
var methods = []string{
	MethodFetchInc, MethodRead, MethodWrite, MethodCAS, MethodPropose,
	MethodTestSet, MethodWriteMax, MethodEnq, MethodDeq, MethodAppend,
}

// methodName returns b as a string: the constant it spells (the comparison
// converts without allocating), else a copy.
func methodName(b []byte) string {
	for _, m := range methods {
		if string(b) == m {
			return m
		}
	}
	return string(b)
}

// Word tags (the low 3 bits of an encoded word).
const (
	tagFetchInc int64 = 1
	tagRead     int64 = 2
	tagWrite    int64 = 3
	tagTestSet  int64 = 4
	tagWriteMax int64 = 5
)

// EncodeOpWord encodes op as one non-negative int64: the method tag in the
// low 3 bits, the zigzag-encoded argument above. It covers the one-word
// methods fetchinc, read, write(v), testset and writemax(v), with v in
// [-2^59, 2^59).
func EncodeOpWord(op Op) (int64, error) {
	var tag, arg int64
	switch {
	case op.Method == MethodFetchInc && op.NArgs == 0:
		tag = tagFetchInc
	case op.Method == MethodRead && op.NArgs == 0:
		tag = tagRead
	case op.Method == MethodWrite && op.NArgs == 1:
		tag, arg = tagWrite, op.Args[0]
	case op.Method == MethodTestSet && op.NArgs == 0:
		tag = tagTestSet
	case op.Method == MethodWriteMax && op.NArgs == 1:
		tag, arg = tagWriteMax, op.Args[0]
	default:
		return 0, fmt.Errorf("spec: operation %s has no word encoding", op)
	}
	z := uint64(arg<<1) ^ uint64(arg>>63) // zigzag: sign into bit 0
	if z>>60 != 0 {
		return 0, fmt.Errorf("spec: argument of %s out of encodable range", op)
	}
	return tag | int64(z)<<3, nil
}

// DecodeOpWord inverts EncodeOpWord.
func DecodeOpWord(w int64) (Op, error) {
	if w < 0 {
		return Op{}, fmt.Errorf("spec: negative operation word %d", w)
	}
	z := uint64(w) >> 3
	arg := int64(z>>1) ^ -int64(z&1)
	switch w & 7 {
	case tagFetchInc:
		return MakeOp(MethodFetchInc), nil
	case tagRead:
		return MakeOp(MethodRead), nil
	case tagWrite:
		return MakeOp1(MethodWrite, arg), nil
	case tagTestSet:
		return MakeOp(MethodTestSet), nil
	case tagWriteMax:
		return MakeOp1(MethodWriteMax, arg), nil
	default:
		return Op{}, fmt.Errorf("spec: unknown tag in operation word %d", w)
	}
}
