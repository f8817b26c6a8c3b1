package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one benchmark-side call into a layer's public API, recorded
// from outside the program. ID names what the call worked on: the cell
// ("experiment/cell") for per-cell spans and trace exports, the
// workload for whole-run calls. Parent is the name of the enclosing
// call within the same iteration.
type span struct {
	Name    string  `json:"name"`
	ID      string  `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	Iter    int     `json:"iter"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, which is how untraced iterations run.
type spanLog struct {
	origin time.Time
	iter   int
	spans  []span
}

func (l *spanLog) add(name, id, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		Name:    name,
		ID:      id,
		Parent:  parent,
		Iter:    l.iter,
		StartMs: float64(start.Sub(l.origin)) / 1e6,
		DurMs:   float64(end.Sub(start)) / 1e6,
	})
}

// writeJSONL writes every span, one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
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
