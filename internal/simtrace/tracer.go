package simtrace

import (
	"cmp"
	"slices"

	"perfiso/internal/sim"
)

// Kind classifies an event; the values map onto Chrome trace-event
// phases when the trace is exported.
type Kind uint8

const (
	// KindSlice is a complete execution slice on a core track ("X").
	KindSlice Kind = iota
	// KindBegin opens an async span keyed by ID ("b").
	KindBegin
	// KindEnd closes an async span keyed by ID ("e").
	KindEnd
	// KindInstant is a point event on a track ("i").
	KindInstant
)

// KV is one ordered key/value argument attached to an event. A slice
// of KV (not a map) keeps serialization order deterministic.
type KV struct {
	Key   string
	Value string
}

// Event is one sim-domain trace record. TS is the simulated clock;
// Seq is the tracer-local emission counter that breaks ties, making
// the total order (TS, Seq) a pure function of the seed.
type Event struct {
	Seq   uint64
	TS    sim.Time
	Dur   sim.Duration // slices only
	Kind  Kind
	Name  string
	Cat   string
	Track int // core id, or TrackControl for machine-wide events
	ID    int // async span id (query id); ignored unless Begin/End
	Args  []KV
}

// TrackControl is the synthetic track carrying controller decisions
// and query milestones that are not tied to one core.
const TrackControl = -1

// Tracer accumulates sim-domain events for one cell. The zero value
// is ready to use; a nil *Tracer discards everything, which is how
// instrumented packages keep the tracing-off path at one branch.
type Tracer struct {
	events []Event
	seq    uint64
	tracks []Track
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Enabled reports whether events are being captured.
func (t *Tracer) Enabled() bool { return t != nil }

// NameTrack records a human-readable name for a track, exported as
// thread-name metadata. Later names for the same id win.
func (t *Tracer) NameTrack(id int, name string) {
	if t == nil {
		return
	}
	for i := range t.tracks {
		if t.tracks[i].ID == id {
			t.tracks[i].Name = name
			return
		}
	}
	t.tracks = append(t.tracks, Track{ID: id, Name: name})
}

func (t *Tracer) push(e Event) {
	e.Seq = t.seq
	t.seq++
	t.events = append(t.events, e)
}

// Slice records a completed execution slice [start, start+dur) on a
// core track.
func (t *Tracer) Slice(start sim.Time, dur sim.Duration, track int, name, cat string, args ...KV) {
	if t == nil {
		return
	}
	t.push(Event{TS: start, Dur: dur, Kind: KindSlice, Name: name, Cat: cat, Track: track, Args: args})
}

// Begin opens the async span id at ts.
func (t *Tracer) Begin(ts sim.Time, id int, name, cat string, args ...KV) {
	if t == nil {
		return
	}
	t.push(Event{TS: ts, Kind: KindBegin, Name: name, Cat: cat, Track: TrackControl, ID: id, Args: args})
}

// End closes the async span id at ts.
func (t *Tracer) End(ts sim.Time, id int, name, cat string, args ...KV) {
	if t == nil {
		return
	}
	t.push(Event{TS: ts, Kind: KindEnd, Name: name, Cat: cat, Track: TrackControl, ID: id, Args: args})
}

// Instant records a point event at ts on the given track.
func (t *Tracer) Instant(ts sim.Time, track int, name, cat string, args ...KV) {
	if t == nil {
		return
	}
	t.push(Event{TS: ts, Kind: KindInstant, Name: name, Cat: cat, Track: track, Args: args})
}

// Len returns the number of captured events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// order returns the event indices sorted by (TS, index). Events are
// appended in Seq order, so the index is the Seq and this is the
// (TS, Seq) total order; sorting 4-byte indices instead of the events
// themselves leaves the capture untouched.
func (t *Tracer) order() []int32 {
	if t == nil {
		return nil
	}
	ev := t.events
	perm := make([]int32, len(ev))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmp.Compare(ev[a].TS, ev[b].TS); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return perm
}

// Events returns the captured events sorted by (TS, Seq). The slice
// is a copy; the tracer keeps accumulating independently.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, len(t.events))
	for k, i := range t.order() {
		out[k] = t.events[i]
	}
	return out
}

// Track is a named track, exported as thread-name metadata.
type Track struct {
	ID   int
	Name string
}

// Tracks returns the named tracks sorted by id.
func (t *Tracer) Tracks() []Track {
	if t == nil {
		return nil
	}
	out := slices.Clone(t.tracks)
	slices.SortFunc(out, func(a, b Track) int { return cmp.Compare(a.ID, b.ID) })
	return out
}
