package machine

// Fingerprinter is optionally implemented by Process machines that can
// encode their complete local state into bytes. The encoding must be
// injective per implementation: two processes of the same implementation
// append equal bytes iff they behave identically under every future
// response sequence.
//
// Fingerprints power the configuration-deduplication option of package
// explore: symmetric workloads reach the same configuration along many
// interleavings, and merging those nodes turns the execution tree into a
// DAG. Implementations that do not provide a fingerprint still explore
// correctly — deduplication is simply unavailable for them.
type Fingerprinter interface {
	// AppendFingerprint appends the process's local state to b and returns
	// the extended slice. It must not retain b and must not allocate beyond
	// growing b. The second result is false when the process cannot encode
	// its state (e.g. a wrapper whose inner programme is not a
	// Fingerprinter); deduplication then disables itself.
	AppendFingerprint(b []byte) ([]byte, bool)
}
