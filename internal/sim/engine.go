package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration's representation so the usual constants read naturally.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports d as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

func (t Time) String() string     { return fmt.Sprintf("t+%.6fs", t.Seconds()) }
func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }

// event is one scheduled entry in the engine's heap: the (at, seq) key
// plus the index of its callback in the engine's slot pool. seq breaks
// ties so that events scheduled earlier at the same timestamp run
// first (stable FIFO ordering) — the contract bit-identical
// reproduction rests on. The struct is pointer-free on purpose: the
// heap's backing array is never scanned by the GC and sift moves incur
// no write barriers.
type event struct {
	at   Time
	seq  uint64
	slot int32
}

// Less orders events by (at, seq). The seq tie-break makes the order
// total: no two live events compare equal.
func (a event) Less(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	events  Heap[event]
	stopped bool

	// fns is the pooled callback storage: events carry slot indices
	// into it, so the heap stays pointer-free and popped slots are
	// recycled through free instead of churning the allocator. A slot
	// is cleared (and recycled) before its callback runs, so a
	// callback that schedules new events reuses storage without ever
	// aliasing a live closure. slotSeq pairs each occupied slot with
	// the seq of its event; a heap entry whose seq no longer matches
	// was cancelled and is discarded on pop (lazy deletion).
	fns     []func()
	slotSeq []uint64
	free    []int32
	// live counts scheduled-and-not-cancelled events; it is what
	// Pending reports (the heap may additionally hold cancelled
	// entries awaiting lazy removal).
	live int

	// executed counts dispatched events, exposed for tests and stats.
	executed uint64
	// pushed, maxDepth and advanced are the work counts Counts reports.
	// They are plain fields: an engine belongs to one cell, and one
	// cell runs on one goroutine.
	pushed   uint64
	maxDepth int
	advanced Duration

	// Tally holds the cell's controller and harvest decision counts.
	// core and harvest bump it through the engine they already hold.
	Tally Tally
}

// Tally counts a cell's controller and harvest decisions. It lives on
// the engine, which outlives controller and scheduler restarts, so a
// cell's totals stay exact.
type Tally struct {
	// BufferGrows and BufferShrinks count blind-isolation grant
	// changes; HoldoffDeferrals counts grows the holdoff suppressed;
	// Evictions counts memory-guard job kills.
	BufferGrows, BufferShrinks, HoldoffDeferrals, Evictions uint64
	// Placements, Preemptions and Requeues count harvest task
	// placements, buffer-squeeze preemptions and failure requeues.
	Placements, Preemptions, Requeues uint64
}

// Counts is an engine's work and decision counts, read once per cell
// by the harness.
type Counts struct {
	// EventsPushed and EventsPopped count heap entries in and out,
	// cancelled ones included; MaxHeapDepth is the deepest heap seen.
	EventsPushed, EventsPopped uint64
	MaxHeapDepth               int
	// SimTime sums the virtual time advanced by Run and RunAll.
	SimTime Duration
	Tally
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Counts reports the engine's work and decision counts so far. Every
// pop removes one pushed entry, so the pop count is derived.
func (e *Engine) Counts() Counts {
	return Counts{
		EventsPushed: e.pushed,
		EventsPopped: e.pushed - uint64(e.events.Len()),
		MaxHeapDepth: e.maxDepth,
		SimTime:      e.advanced,
		Tally:        e.Tally,
	}
}

// countPush keeps the push counts after a heap push.
func (e *Engine) countPush() {
	e.pushed++
	if n := e.events.Len(); n > e.maxDepth {
		e.maxDepth = n
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have been dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are currently queued (cancelled
// events are excluded).
func (e *Engine) Pending() int { return e.live }

// takeSlot stores fn in a recycled (or fresh) slot, stamps it with the
// event's seq, and returns the slot index.
func (e *Engine) takeSlot(fn func(), seq uint64) int32 {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.fns[slot] = fn
		e.slotSeq[slot] = seq
	} else {
		slot = int32(len(e.fns))
		e.fns = append(e.fns, fn)
		e.slotSeq = append(e.slotSeq, seq)
	}
	return slot
}

// At schedules fn to run at absolute time t. Scheduling at exactly the
// current instant is legal and runs fn after every event already
// scheduled for now (FIFO). Scheduling in the past panics: it always
// indicates a model bug, and silently reordering time would corrupt
// every downstream measurement.
func (e *Engine) At(t Time, fn func()) { e.AtTimer(t, fn) }

// AtTimer is At returning a Timer that can later cancel the event.
func (e *Engine) AtTimer(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	seq := e.seq
	slot := e.takeSlot(fn, seq)
	e.live++
	e.events.Push(event{at: t, seq: seq, slot: slot})
	e.countPush()
	return Timer{slot: slot, seq: seq}
}

// After schedules fn to run d from now. Negative d panics via At.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now.Add(d), fn) }

// AfterTimer is After returning a cancellation Timer.
func (e *Engine) AfterTimer(d Duration, fn func()) Timer {
	return e.AtTimer(e.now.Add(d), fn)
}

// Timer identifies one scheduled event for cancellation. The zero Timer
// is valid and never matches a live event.
type Timer struct {
	slot int32
	seq  uint64
}

// Cancel revokes a scheduled event so its callback never runs. It
// reports whether the event was still pending; cancelling an event that
// already ran (or was already cancelled) is a harmless no-op. The seq
// stamp makes stale Timers safe even after their slot is recycled.
//
// Cancellation is lazy: the heap entry stays queued and is discarded
// when it surfaces. Removing an entry from a totally ordered queue
// never reorders the remaining events — and a cancelled entry neither
// advances the clock nor counts as executed — so cancelling an event
// that would have been a no-op is observationally invisible.
func (e *Engine) Cancel(tm Timer) bool {
	if tm.seq == 0 || int(tm.slot) >= len(e.fns) || e.slotSeq[tm.slot] != tm.seq {
		return false
	}
	e.fns[tm.slot] = nil
	e.slotSeq[tm.slot] = 0
	e.live--
	return true
}

// Step dispatches the next event. It reports false when no events remain.
func (e *Engine) Step() bool {
	for e.events.Len() > 0 {
		ev := e.events.Pop()
		if e.slotSeq[ev.slot] != ev.seq {
			// Cancelled: recycle the slot (held since Cancel so the
			// stale heap entry could never alias a newer event) and
			// keep the clock where it is.
			e.free = append(e.free, ev.slot)
			continue
		}
		// Copy the callback out and recycle its slot before running it: the
		// callback may schedule new events into the freed slot, and must
		// never observe (or clobber) the closure it is itself executing.
		fn := e.fns[ev.slot]
		e.fns[ev.slot] = nil
		e.slotSeq[ev.slot] = 0
		e.free = append(e.free, ev.slot)
		e.live--
		e.now = ev.at
		e.executed++
		fn()
		return true
	}
	return false
}

// Run dispatches events until the queue is empty or the next event lies
// beyond until; the clock is then advanced to until. It returns the number
// of events dispatched.
func (e *Engine) Run(until Time) uint64 {
	start := e.executed
	from := e.now
	for e.events.Len() > 0 && !e.stopped {
		ev := e.events.Min()
		if e.slotSeq[ev.slot] != ev.seq {
			// Cancelled head: discard without touching the clock.
			e.events.Pop()
			e.free = append(e.free, ev.slot)
			continue
		}
		if ev.at > until {
			break
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
	e.stopped = false
	e.advanced += e.now.Sub(from)
	return e.executed - start
}

// RunAll dispatches every remaining event.
func (e *Engine) RunAll() uint64 {
	start := e.executed
	from := e.now
	for e.Step() {
		if e.stopped {
			e.stopped = false
			break
		}
	}
	e.advanced += e.now.Sub(from)
	return e.executed - start
}

// Stop makes the current Run/RunAll call return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

// Agenda streams a pre-planned batch of events into the engine without
// holding them all in the heap at once. NewAgenda reserves the next n
// sequence numbers at call time, so events fed through Agenda.At keep
// exactly the (at, seq) order they would have had if all n had been
// scheduled up front at that point — including FIFO ties against one
// another and against every other event — while the heap only ever
// holds the handful actually in flight. Replayers use this to chain
// half-million-query traces: pop cost is O(log of live events), not
// O(log of the whole trace).
//
// Agenda.At calls must be made in planning order (they consume the
// reserved seqs sequentially) and, as with Engine.At, may not schedule
// into the past — which in a chained replay means the planned times
// must be nondecreasing.
type Agenda struct {
	e    *Engine
	next uint64
	end  uint64
}

// NewAgenda reserves seq numbers for the next n events.
func (e *Engine) NewAgenda(n int) *Agenda {
	if n < 0 {
		panic("sim: negative agenda size")
	}
	a := &Agenda{e: e, next: e.seq + 1, end: e.seq + 1 + uint64(n)}
	e.seq += uint64(n)
	return a
}

// Remaining reports how many reserved slots are left.
func (a *Agenda) Remaining() int { return int(a.end - a.next) }

// At schedules fn at time t under the next reserved sequence number.
func (a *Agenda) At(t Time, fn func()) {
	if a.next >= a.end {
		panic("sim: agenda exhausted")
	}
	e := a.e
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	seq := a.next
	a.next++
	slot := e.takeSlot(fn, seq)
	e.live++
	e.events.Push(event{at: t, seq: seq, slot: slot})
	e.countPush()
}

// Ticker invokes fn every period until it returns false. The first call
// happens one period from now.
func (e *Engine) Ticker(period Duration, fn func() bool) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.After(period, tick)
		}
	}
	e.After(period, tick)
}
