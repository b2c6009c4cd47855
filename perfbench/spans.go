package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed boundary crossing of the generator: a SIP
// transaction leg or an RTP leg, keyed by the Call-ID of its call.
type span struct {
	Name   string        `json:"name"`
	CallID string        `json:"call_id"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog collects a traced window's spans in memory; they are
// written out once the run has finished measuring.
type spanLog struct{ spans []span }

// add records a span when both ends were reached.
func (l *spanLog) add(name, callID string, start, end time.Duration) {
	if start > 0 && end >= start {
		l.spans = append(l.spans, span{name, callID, start, end})
	}
}

// medianMS is the median length of the named spans, in ms.
func (l *spanLog) medianMS(name string) float64 {
	var ms []float64
	for _, s := range l.spans {
		if s.Name == name {
			ms = append(ms, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return median(ms)
}

// write stores the spans as JSON lines in dir.
func (l *spanLog) write(dir, workload string, seed uint64) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
