package simtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// controlTID is the Chrome thread id carrying TrackControl events;
// it sits far above any plausible core count.
const controlTID = 999

func tid(track int) int {
	if track < 0 {
		return controlTID
	}
	return track
}

// flushAt is the buffered byte count past which WriteChrome hands the
// buffer to its writer; one buffer is reused for the whole export.
const flushAt = 64 << 10

// appendMicros renders sim nanoseconds as microseconds with a fixed
// 3-decimal nanosecond fraction — a deterministic decimal string.
// Negative values clamp to 0.
func appendMicros(b []byte, ns int64) []byte {
	if ns < 0 {
		ns = 0
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// appendQuote appends s as a JSON string, byte-identical to
// strconv.Quote. Strings of printable ASCII other than '"' and '\\' —
// nearly every name in a trace — need no escaping and are copied
// directly.
func appendQuote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendTID(b []byte, track int) []byte {
	return strconv.AppendInt(append(b, `,"pid":0,"tid":`...), int64(tid(track)), 10)
}

func appendEvent(b []byte, e *Event) []byte {
	b = append(b, ",\n{\"name\":"...)
	b = appendQuote(b, e.Name)
	if e.Cat != "" {
		b = append(b, `,"cat":`...)
		b = appendQuote(b, e.Cat)
	}
	switch e.Kind {
	case KindSlice:
		b = appendTID(append(b, `,"ph":"X"`...), e.Track)
		b = appendMicros(append(b, `,"ts":`...), int64(e.TS))
		b = appendMicros(append(b, `,"dur":`...), int64(e.Dur))
	case KindBegin, KindEnd:
		ph := `,"ph":"b"`
		if e.Kind == KindEnd {
			ph = `,"ph":"e"`
		}
		b = appendTID(append(b, ph...), e.Track)
		b = strconv.AppendInt(append(b, `,"id":"`...), int64(e.ID), 10)
		b = appendMicros(append(b, `","ts":`...), int64(e.TS))
	case KindInstant:
		b = appendTID(append(b, `,"ph":"i","s":"t"`...), e.Track)
		b = appendMicros(append(b, `,"ts":`...), int64(e.TS))
	}
	if len(e.Args) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range e.Args {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendQuote(b, a.Key)
			b = append(b, ':')
			b = appendQuote(b, a.Value)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// WriteChrome serializes the tracer's events as Chrome trace-event
// JSON (the {"traceEvents":[...]} object form), loadable in Perfetto
// or chrome://tracing. Events are ordered by (TS, Seq) after the
// track-name metadata, and every field is rendered with a fixed
// format, so the output bytes are a pure function of the capture.
//
// The export appends into one reused buffer and orders events through
// an index permutation, so it allocates a fixed handful of times
// whatever the event count; the tracer itself is not modified.
func WriteChrome(w io.Writer, t *Tracer) error {
	b := make([]byte, 0, flushAt+4<<10)
	b = append(b, "{\"traceEvents\":[\n"...)
	b = append(b, `{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"perfiso-sim"}}`...)
	for _, tr := range t.Tracks() {
		b = append(b, ",\n{\"name\":\"thread_name\",\"ph\":\"M\""...)
		b = appendTID(b, tr.ID)
		b = appendQuote(append(b, `,"args":{"name":`...), tr.Name)
		b = append(b, "}}"...)
	}
	b = append(b, ",\n{\"name\":\"thread_name\",\"ph\":\"M\""...)
	b = appendTID(b, TrackControl)
	b = append(b, `,"args":{"name":"control"}}`...)
	for _, i := range t.order() {
		b = appendEvent(b, &t.events[i])
		if len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, "\n]}\n"...)
	_, err := w.Write(b)
	return err
}

type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	TS   *float64         `json:"ts"`
	Dur  *float64         `json:"dur"`
	ID   *json.RawMessage `json:"id"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// ValidateChrome checks that data is a well-formed Chrome trace-event
// JSON object: known phases only, timestamps present where required,
// non-negative durations, per-track monotone non-decreasing
// timestamps, and every async end matching a previously opened begin
// (spans still open at end-of-capture are legal — they are queries in
// flight when the simulation stopped).
func ValidateChrome(data []byte) error {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("no traceEvents")
	}
	lastTS := make(map[[2]int]float64)
	open := make(map[string]int)
	for i, e := range f.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("event %d: missing name", i)
		}
		switch e.Ph {
		case "M":
			continue
		case "X":
			if e.TS == nil || e.Dur == nil {
				return fmt.Errorf("event %d (%s): slice missing ts/dur", i, e.Name)
			}
			if *e.Dur < 0 {
				return fmt.Errorf("event %d (%s): negative dur %g", i, e.Name, *e.Dur)
			}
		case "b", "e":
			if e.TS == nil || e.ID == nil {
				return fmt.Errorf("event %d (%s): async event missing ts/id", i, e.Name)
			}
			key := e.Cat + "\x00" + e.Name + "\x00" + string(*e.ID)
			if e.Ph == "b" {
				open[key]++
			} else {
				if open[key] == 0 {
					return fmt.Errorf("event %d (%s): async end without begin", i, e.Name)
				}
				open[key]--
			}
		case "i":
			if e.TS == nil {
				return fmt.Errorf("event %d (%s): instant missing ts", i, e.Name)
			}
		default:
			return fmt.Errorf("event %d (%s): unknown phase %q", i, e.Name, e.Ph)
		}
		track := [2]int{e.Pid, e.Tid}
		if prev, ok := lastTS[track]; ok && *e.TS < prev {
			return fmt.Errorf("event %d (%s): ts %g regresses below %g on track %d/%d",
				i, e.Name, *e.TS, prev, e.Pid, e.Tid)
		}
		lastTS[track] = *e.TS
	}
	return nil
}
