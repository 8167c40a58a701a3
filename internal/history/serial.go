package history

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/elin-go/elin/internal/spec"
)

// jsonEvent is the JSON wire form of an Event.
type jsonEvent struct {
	Kind string `json:"kind"`
	Proc int    `json:"proc"`
	Obj  string `json:"obj"`
	Op   string `json:"op,omitempty"`
	Resp int64  `json:"resp,omitempty"`
}

// MarshalJSON encodes the history as a JSON array of events.
func (h *History) MarshalJSON() ([]byte, error) {
	out := make([]jsonEvent, len(h.recs))
	for i := range h.recs {
		r := &h.recs[i]
		out[i] = jsonEvent{Kind: r.kind().String(), Proc: r.proc, Obj: h.objs[r.obj]}
		if r.kind() == KindInvoke {
			out[i].Op = h.op(r).String()
		} else {
			out[i].Resp = r.a
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a JSON array of events, validating well-formedness.
func (h *History) UnmarshalJSON(data []byte) error {
	var in []jsonEvent
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("decode history: %w", err)
	}
	fresh := New()
	for i, je := range in {
		e := Event{Proc: je.Proc, Obj: je.Obj}
		switch je.Kind {
		case "inv":
			e.Kind = KindInvoke
			op, err := spec.ParseOp(je.Op)
			if err != nil {
				return fmt.Errorf("decode history event %d: %w", i, err)
			}
			e.Op = op
		case "res":
			e.Kind = KindRespond
			e.Resp = je.Resp
		default:
			return fmt.Errorf("decode history event %d: unknown kind %q", i, je.Kind)
		}
		if err := fresh.Append(e); err != nil {
			return fmt.Errorf("decode history event %d: %w", i, err)
		}
	}
	*h = *fresh
	return nil
}

// WriteText writes the compact text format, one event per line:
//
//	inv p0 X fetchinc
//	res p0 X 3
//
// Blank lines and lines starting with '#' are comments on input.
func (h *History) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range h.recs {
		if _, err := fmt.Fprintln(bw, h.decode(&h.recs[i]).String()); err != nil {
			return fmt.Errorf("write history: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write history: %w", err)
	}
	return nil
}

// ReadText parses the compact text format produced by WriteText.
func ReadText(r io.Reader) (*History, error) {
	h := New()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseEventLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := h.Append(e); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read history: %w", err)
	}
	return h, nil
}

func parseEventLine(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) != 4 {
		return Event{}, fmt.Errorf("expected 4 fields %q", line)
	}
	var e Event
	switch fields[0] {
	case "inv":
		e.Kind = KindInvoke
	case "res":
		e.Kind = KindRespond
	default:
		return Event{}, fmt.Errorf("unknown event kind %q", fields[0])
	}
	if !strings.HasPrefix(fields[1], "p") {
		return Event{}, fmt.Errorf("process field %q must start with 'p'", fields[1])
	}
	proc, err := strconv.Atoi(fields[1][1:])
	if err != nil || proc < 0 {
		return Event{}, fmt.Errorf("invalid process %q", fields[1])
	}
	e.Proc = proc
	e.Obj = fields[2]
	if e.Kind == KindInvoke {
		op, err := spec.ParseOp(fields[3])
		if err != nil {
			return Event{}, err
		}
		e.Op = op
	} else {
		resp, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("invalid response %q", fields[3])
		}
		e.Resp = resp
	}
	return e, nil
}
