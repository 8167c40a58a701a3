// Package faults is the deterministic fault plane of the live runtime:
// one Spec describes every injected failure of a run — per-client stalls,
// a hard crash at a commit ticket, slow-writer jitter, and post-crash
// write-ahead-log corruption — and every decision the spec makes is a pure
// function of (seed, commit ticket, client, op index). No fault consults a
// wall clock or an unseeded random source, so seeded replay, fuzzing and
// ddmin shrinking keep working byte-identically under injected failures,
// and the serial driver (live.Config.Serial) reproduces a faulted run
// exactly across reruns.
//
// The textual grammar is a comma-separated list of directives:
//
//	stall:C@T+D   client C pauses at commit ticket T until ticket T+D
//	crash:K       the process dies at commit ticket K (only the WAL survives)
//	jitter:N      per-op slow-writer jitter with amplitude N (microseconds
//	              under goroutine clients; deferred turns under the serial
//	              driver), drawn as a pure function of (seed, client, op)
//	flip[:OFF]    post-crash WAL corruption: flip one bit at byte OFF
//	              (seed-derived offset when omitted)
//	trunc:N       post-crash WAL corruption: cut N bytes off the tail
//	none          the empty spec
//
// Example: "stall:1@64+256,jitter:20,crash:5000".
package faults

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Stall pauses one client: once the run's commit ticket reaches Ticket,
// the client issues no further operations until the ticket reaches
// Ticket+Ops (other clients' commits move the ticket past the window; the
// runtime releases the victim early when no other client remains to
// commit).
type Stall struct {
	// Client is the victim client index (0-based).
	Client int
	// Ticket is the trigger: the commit ticket at which the pause begins.
	Ticket uint64
	// Ops is the pause length in commit tickets.
	Ops uint64
}

// String renders the stall in spec grammar.
func (s Stall) String() string {
	return fmt.Sprintf("stall:%d@%d+%d", s.Client, s.Ticket, s.Ops)
}

// Corrupt describes post-crash write-ahead-log corruption, applied to the
// log file between the crash and the recovery (the torn-tail and
// bit-rot cases recovery must survive).
type Corrupt struct {
	// Kind is "flip" (flip one bit) or "trunc" (cut bytes off the tail).
	Kind string
	// Arg is the byte offset of a flip (negative: derive it from the
	// seed), or the number of tail bytes a trunc removes.
	Arg int64
}

// String renders the corruption in spec grammar.
func (c Corrupt) String() string {
	if c.Kind == KindFlip {
		if c.Arg < 0 {
			return KindFlip
		}
		return fmt.Sprintf("%s:%d", KindFlip, c.Arg)
	}
	return fmt.Sprintf("%s:%d", KindTrunc, c.Arg)
}

// Corruption kinds.
const (
	KindFlip  = "flip"
	KindTrunc = "trunc"
)

// Spec is one run's fault plane. The zero value injects nothing.
type Spec struct {
	// Stalls are the per-client pauses, evaluated independently.
	Stalls []Stall
	// CrashAtCommit kills the run at this commit ticket (0 = never): the
	// in-memory state is gone, only the write-ahead log survives.
	CrashAtCommit uint64
	// JitterMax enables slow-writer jitter: before each operation a client
	// delays by a pure function of (seed, client, op index) bounded by
	// JitterMax — microseconds under goroutine clients, deferred
	// round-robin turns (capped at 8) under the serial driver.
	JitterMax int
	// Corrupt is the post-crash WAL corruption, applied by CorruptWAL.
	Corrupt *Corrupt
}

// Zero reports whether the spec injects nothing.
func (s *Spec) Zero() bool {
	return s == nil || (len(s.Stalls) == 0 && s.CrashAtCommit == 0 && s.JitterMax == 0 && s.Corrupt == nil)
}

// String renders the spec in the Parse grammar (canonical directive
// order: stalls sorted by client, ticket, then length, crash, jitter,
// corruption).
func (s *Spec) String() string {
	if s.Zero() {
		return "none"
	}
	var parts []string
	stalls := slices.Clone(s.Stalls)
	slices.SortFunc(stalls, func(a, b Stall) int {
		return cmp.Or(cmp.Compare(a.Client, b.Client), cmp.Compare(a.Ticket, b.Ticket), cmp.Compare(a.Ops, b.Ops))
	})
	for _, st := range stalls {
		parts = append(parts, st.String())
	}
	if s.CrashAtCommit > 0 {
		parts = append(parts, fmt.Sprintf("crash:%d", s.CrashAtCommit))
	}
	if s.JitterMax > 0 {
		parts = append(parts, fmt.Sprintf("jitter:%d", s.JitterMax))
	}
	if s.Corrupt != nil {
		parts = append(parts, s.Corrupt.String())
	}
	return strings.Join(parts, ",")
}

// Parse reads the directive grammar. "" and "none" parse to nil (no fault
// plane); unknown directives and malformed parameters are errors that echo
// the grammar.
func Parse(text string) (*Spec, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "none" {
		return nil, nil
	}
	sp := &Spec{}
	for _, dir := range strings.Split(text, ",") {
		dir = strings.TrimSpace(dir)
		kind, arg, hasArg := strings.Cut(dir, ":")
		switch kind {
		case "stall":
			st, err := parseStall(arg, hasArg)
			if err != nil {
				return nil, fmt.Errorf("faults: directive %q: %w", dir, err)
			}
			sp.Stalls = append(sp.Stalls, st)
		case "crash":
			k, err := parseUint(arg, hasArg)
			if err != nil || k == 0 {
				return nil, fmt.Errorf("faults: directive %q: want crash:K with K >= 1", dir)
			}
			if sp.CrashAtCommit != 0 {
				return nil, fmt.Errorf("faults: duplicate crash directive %q", dir)
			}
			sp.CrashAtCommit = k
		case "jitter":
			n, err := parseUint(arg, hasArg)
			if err != nil || n == 0 || n > math.MaxInt {
				return nil, fmt.Errorf("faults: directive %q: want jitter:N with N >= 1", dir)
			}
			if sp.JitterMax != 0 {
				return nil, fmt.Errorf("faults: duplicate jitter directive %q", dir)
			}
			sp.JitterMax = int(n)
		case KindFlip:
			if sp.Corrupt != nil {
				return nil, fmt.Errorf("faults: duplicate corruption directive %q", dir)
			}
			off := int64(-1)
			if hasArg {
				v, err := strconv.ParseInt(arg, 10, 64)
				if err != nil || v < 0 {
					return nil, fmt.Errorf("faults: directive %q: want flip[:OFF] with OFF >= 0", dir)
				}
				off = v
			}
			sp.Corrupt = &Corrupt{Kind: KindFlip, Arg: off}
		case KindTrunc:
			n, err := parseUint(arg, hasArg)
			if err != nil || n == 0 || n > math.MaxInt64 {
				return nil, fmt.Errorf("faults: directive %q: want trunc:N with N >= 1", dir)
			}
			if sp.Corrupt != nil {
				return nil, fmt.Errorf("faults: duplicate corruption directive %q", dir)
			}
			sp.Corrupt = &Corrupt{Kind: KindTrunc, Arg: int64(n)}
		case "none":
			return nil, fmt.Errorf("faults: %q cannot be combined with other directives", dir)
		default:
			return nil, fmt.Errorf("faults: unknown directive %q (grammar: stall:C@T+D, crash:K, jitter:N, flip[:OFF], trunc:N, none)", dir)
		}
	}
	return sp, nil
}

// parseStall reads "C@T+D".
func parseStall(arg string, hasArg bool) (Stall, error) {
	if !hasArg {
		return Stall{}, fmt.Errorf("want stall:C@T+D")
	}
	cs, rest, ok := strings.Cut(arg, "@")
	if !ok {
		return Stall{}, fmt.Errorf("want stall:C@T+D")
	}
	ts, ds, ok := strings.Cut(rest, "+")
	if !ok {
		return Stall{}, fmt.Errorf("want stall:C@T+D")
	}
	c, err := strconv.Atoi(cs)
	if err != nil || c < 0 {
		return Stall{}, fmt.Errorf("client %q (want an index >= 0)", cs)
	}
	t, err := strconv.ParseUint(ts, 10, 64)
	if err != nil || t == 0 {
		return Stall{}, fmt.Errorf("trigger ticket %q (want >= 1)", ts)
	}
	d, err := strconv.ParseUint(ds, 10, 64)
	if err != nil || d == 0 {
		return Stall{}, fmt.Errorf("duration %q (want >= 1 tickets)", ds)
	}
	return Stall{Client: c, Ticket: t, Ops: d}, nil
}

func parseUint(arg string, hasArg bool) (uint64, error) {
	if !hasArg {
		return 0, fmt.Errorf("missing parameter")
	}
	return strconv.ParseUint(arg, 10, 64)
}

// StallTarget returns, for the client's next operation while the commit
// ticket reads now, the ticket the client must wait for before issuing it
// (0 = no stall active). Serve bookkeeping is the caller's: a stall whose
// window the ticket has passed never fires again on its own.
func (s *Spec) StallTarget(client int, now uint64) uint64 {
	if s == nil {
		return 0
	}
	var target uint64
	for _, st := range s.Stalls {
		if st.Client != client {
			continue
		}
		if now >= st.Ticket && now < st.Ticket+st.Ops && st.Ticket+st.Ops > target {
			target = st.Ticket + st.Ops
		}
	}
	return target
}

// Jitter returns the client's delay amplitude before its i-th operation: a
// pure splitmix64 draw over (seed, client, i) in [0, JitterMax]. Zero when
// jitter is disabled.
func (s *Spec) Jitter(seed int64, client, i int) int {
	if s == nil || s.JitterMax <= 0 {
		return 0
	}
	x := uint64(seed) ^ (uint64(client+1) * 0x9E3779B97F4A7C15) ^ (uint64(i+1) * 0xD1B54A32D192ED03)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(s.JitterMax+1))
}

// CorruptFile applies the spec's post-crash WAL corruption to the file in
// place — the injection step of a corrupted-recovery scenario, so it is
// deliberately destructive. A flip with a negative offset derives the
// offset from the seed (a pure function of seed and file length, skipping
// the 8-byte magic so recovery still recognizes the file); a trunc cuts
// min(N, size) bytes off the tail. No-op when the spec carries no
// corruption.
func (s *Spec) CorruptFile(path string, seed int64) error {
	if s == nil || s.Corrupt == nil {
		return nil
	}
	c := s.Corrupt
	switch c.Kind {
	case KindTrunc:
		st, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("faults: corrupt %s: %w", path, err)
		}
		keep := st.Size() - c.Arg
		if keep < 0 {
			keep = 0
		}
		if err := os.Truncate(path, keep); err != nil {
			return fmt.Errorf("faults: corrupt %s: %w", path, err)
		}
		return nil
	case KindFlip:
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("faults: corrupt %s: %w", path, err)
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return fmt.Errorf("faults: corrupt %s: %w", path, err)
		}
		const magic = 8
		if st.Size() <= magic {
			return fmt.Errorf("faults: corrupt %s: file too short to flip (%d bytes)", path, st.Size())
		}
		off := c.Arg
		if off < 0 {
			x := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
			x ^= x >> 31
			off = magic + int64(x%uint64(st.Size()-magic))
		}
		if off >= st.Size() {
			off = st.Size() - 1
		}
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			return fmt.Errorf("faults: corrupt %s: %w", path, err)
		}
		b[0] ^= 1 << (uint(seed) & 7)
		if _, err := f.WriteAt(b[:], off); err != nil {
			return fmt.Errorf("faults: corrupt %s: %w", path, err)
		}
		return f.Close()
	default:
		return fmt.Errorf("faults: unknown corruption kind %q", c.Kind)
	}
}
