package spec

// Fingerprints are the in-memory encoding every layer builds configuration
// keys from: a process's local state (machine.Fingerprinter), a base
// object's state, a history, the explorer's dedup and valency keys, and the
// checker's product rows. Deduplication is correct only while all of them
// agree byte for byte, so the encodings of an integer, an operation and a
// state live here alone. No fingerprint is persisted, but the registry's
// serialized-driver digests hash history fingerprints, which pins the
// integer and operation bytes.

// AppendFPInt appends a fixed 8-byte little-endian encoding of v to b.
func AppendFPInt(b []byte, v int64) []byte {
	u := uint64(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// AppendFPOp appends a canonical encoding of an operation to b.
func AppendFPOp(b []byte, op Op) []byte {
	b = AppendFPInt(b, int64(len(op.Method)))
	b = append(b, op.Method...)
	b = append(b, byte(op.NArgs)) // NArgs <= 2 by construction
	for i := 0; i < op.NArgs; i++ {
		b = AppendFPInt(b, op.Args[i])
	}
	return b
}

// AppendFPState appends a canonical encoding of a State to b. The second
// result is false when the state's dynamic type is not supported (all
// states of the paper's concrete types are int64 or string).
func AppendFPState(b []byte, s State) ([]byte, bool) {
	switch v := s.(type) {
	case int64:
		return AppendFPInt(append(b, 'i'), v), true
	case string:
		b = append(b, 's')
		b = AppendFPInt(b, int64(len(v)))
		return append(b, v...), true
	case bool:
		if v {
			return append(b, 'T'), true
		}
		return append(b, 'F'), true
	default:
		return b, false
	}
}

// FNV64 returns the 64-bit FNV-1a hash of b.
func FNV64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
