package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// replay is the timeline of a spec carrying a recorded trace
// (trace-replay v2): the events, checked and copied into canonical
// arrival order. It draws nothing, so a trace replays the same stream
// at every seed.
func (s *Spec) replay() ([]Request, error) {
	out := slices.Clone(s.Trace)
	for i, r := range out {
		if r.T < 0 || math.IsNaN(r.T) || math.IsInf(r.T, 0) {
			return nil, fmt.Errorf("serve: trace event %d has invalid arrival time %v", i, r.T)
		}
		if r.Tokens < 1 {
			return nil, fmt.Errorf("serve: trace event %d has %d tokens, want >= 1", i, r.Tokens)
		}
		if _, ok := s.Class(r.Class); !ok {
			return nil, fmt.Errorf("serve: trace event %d references unknown SLO class %q", i, r.Class)
		}
		if r.Client < 0 || r.Session < 0 {
			return nil, fmt.Errorf("serve: trace event %d has negative client or session", i)
		}
		if r.Prefix < 0 || r.Prefix >= r.Tokens {
			return nil, fmt.Errorf("serve: trace event %d prefix %d out of range [0,%d)", i, r.Prefix, r.Tokens)
		}
	}
	sortRequests(out)
	return out, nil
}

// WriteTrace serializes a timeline as NDJSON, one event per line.
func WriteTrace(w io.Writer, events []Request) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range events {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses an NDJSON request trace. Blank lines are skipped;
// the events are checked when a spec replays them.
func ReadTrace(r io.Reader) ([]Request, error) {
	var out []Request
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(raw, &req); err != nil {
			return nil, fmt.Errorf("serve: trace line %d: %v", line, err)
		}
		out = append(out, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading trace: %v", err)
	}
	return out, nil
}
