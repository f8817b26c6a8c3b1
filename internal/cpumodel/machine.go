package cpumodel

import (
	"fmt"
	"strconv"

	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
	"perfiso/internal/stats"
)

// ThreadState tracks a thread through its lifecycle.
type ThreadState int

const (
	// StateReady means queued on a core, waiting for CPU.
	StateReady ThreadState = iota
	// StateRunning means currently executing on a core.
	StateRunning
	// StateParked means held off-CPU by a cycle-budget freeze or an
	// empty effective affinity.
	StateParked
	// StateDone means the burst completed (or the thread was killed).
	StateDone
)

func (s ThreadState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateParked:
		return "parked"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Forever is a burst length long enough to never complete within any
// experiment: used by always-runnable bully threads.
const Forever = sim.Duration(1) << 58

// Thread is a single CPU burst of work owned by a process. Latency-
// sensitive services spawn one thread per unit of parallel work; bullies
// spawn Forever threads.
type Thread struct {
	ID        int
	Proc      *Process
	Affinity  CPUSet // thread-level mask; intersected with the process mask
	Remaining sim.Duration
	State     ThreadState
	// OnDone fires when the burst completes (not when killed).
	OnDone func()

	ideal   int      // preferred core for placement
	core    int      // core currently running or queued on (-1 otherwise)
	readyAt sim.Time // when the thread last became ready (for FIFO pulls)

	// Forensic accumulators: how long the thread has spent running and
	// waiting, with ready waits classified by blame at enqueue time.
	// Pure observers — never read by a scheduling decision — so they
	// cannot perturb the simulation; always on, priced by
	// BenchmarkStatsOverhead's ≤2% budget.
	fxRun     sim.Duration
	fxQueue   sim.Duration // ready behind primary/OS threads
	fxHarvest sim.Duration // ready behind batch threads on eligible cores
	fxEvict   sim.Duration // ready while a delayed eviction was pending
	fxPark    sim.Duration // parked (freeze or empty affinity)
	waitKind  uint8
	parkedAt  sim.Time
}

// Ready-wait blame classes, decided when the wait begins.
const (
	waitQueue uint8 = iota
	waitHarvest
	waitEvict
)

// ForensicTimes returns the thread's accumulated scheduling-state
// forensics: time spent running, ready behind primary/OS work, ready
// behind harvested batch work, ready while a delayed batch eviction
// was pending, and parked. In-flight intervals are charged on the
// transition that ends them (dispatch, remove, preempt, cancel), so
// after Cancel or completion the partition covers spawn-to-end
// exactly.
func (t *Thread) ForensicTimes() (run, queue, harvest, evict, parked sim.Duration) {
	return t.fxRun, t.fxQueue, t.fxHarvest, t.fxEvict, t.fxPark
}

// eff returns the thread's effective affinity.
func (t *Thread) eff() CPUSet { return t.Affinity & t.Proc.affinity }

// Process groups threads for accounting and control, standing in for an
// OS process placed in a Job Object.
type Process struct {
	Name  string
	Class stats.Class

	m        *Machine
	affinity CPUSet
	// threads holds the process's threads in ascending ID order (IDs
	// are allocated monotonically, so append preserves the order every
	// scheduling sweep relies on). Completed threads linger as
	// StateDone tombstones and are compacted in batches: removal is
	// O(1) amortized where the old map+sort("thread-map") layout paid
	// an allocation and an O(n log n) sort on every affinity sweep.
	threads []*Thread
	live    int          // threads not yet Done (tombstones excluded)
	cpuTime sim.Duration // total CPU consumed (progress metric)

	// Windowed cycle budget (CPU rate control). capFrac <= 0 disables.
	capFrac     float64
	capWindow   sim.Duration
	windowUsed  sim.Duration
	frozen      bool
	parked      []*Thread
	throttleOn  bool
	wakeCounter uint64 // diagnostic: freeze/unfreeze cycles
}

// Affinity returns the process affinity mask.
func (p *Process) Affinity() CPUSet { return p.affinity }

// CPUTime returns the total CPU time consumed by the process, accrued to
// the machine's current time.
func (p *Process) CPUTime() sim.Duration {
	p.m.AccrueAll()
	return p.cpuTime
}

// LiveThreads reports how many threads are not Done.
func (p *Process) LiveThreads() int { return p.live }

// addThread records a freshly spawned thread. Spawn allocates IDs
// monotonically, so appending keeps p.threads in ID order.
func (p *Process) addThread(t *Thread) {
	p.threads = append(p.threads, t)
	p.live++
}

// dropThread retires a thread that has just entered StateDone. The
// entry stays behind as a tombstone until enough accumulate, then one
// pass copies the survivors into a fresh slice — never in place, so a
// scheduling sweep ranging over the old header mid-drop still sees a
// stable snapshot.
func (p *Process) dropThread() {
	p.live--
	if len(p.threads) >= 32 && p.live*2 < len(p.threads) {
		kept := make([]*Thread, 0, p.live)
		for _, t := range p.threads {
			if t.State != StateDone {
				kept = append(kept, t)
			}
		}
		p.threads = kept
	}
}

// Frozen reports whether the process is currently frozen by its cycle
// budget.
func (p *Process) Frozen() bool { return p.frozen }

// core is one logical CPU.
type core struct {
	id         int
	running    *Thread
	queue      []*Thread
	sliceStart sim.Time // when the current thread was dispatched
	runStart   sim.Time // last accounting accrual point
	idleStart  sim.Time // when the core last went idle
	epoch      uint64   // invalidates stale slice events

	// sliceEv/sliceTimer track the armed slice event so preemption can
	// cancel it instead of leaving a dead event in the heap.
	sliceEv    *sliceEvent
	sliceTimer sim.Timer
}

// sliceEvent is a pooled slice-expiry record. Its fn field is bound to
// fire exactly once, so arming a slice costs no allocation: the record
// cycles between the machine's pool and the engine, and fire releases
// it back to the pool before dispatching (the handlers may arm the next
// slice, which can legally reuse this very record).
type sliceEvent struct {
	m         *Machine
	c         *core
	t         *Thread
	epoch     uint64
	completes bool
	fn        func()
}

func (ev *sliceEvent) fire() {
	m, c, t, epoch, completes := ev.m, ev.c, ev.t, ev.epoch, ev.completes
	ev.c, ev.t = nil, nil
	m.slicePool = append(m.slicePool, ev)
	if c.epoch != epoch || c.running != t {
		return // stale: the thread was evicted or killed
	}
	if completes {
		m.completeSlice(c)
	} else {
		m.expireQuantum(c)
	}
}

func (m *Machine) getSliceEvent() *sliceEvent {
	if n := len(m.slicePool); n > 0 {
		ev := m.slicePool[n-1]
		m.slicePool = m.slicePool[:n-1]
		return ev
	}
	ev := &sliceEvent{m: m}
	ev.fn = ev.fire
	return ev
}

// Config holds the scheduler's tunables. Defaults model a Windows
// Server-class machine (§5.2).
type Config struct {
	// Cores is the number of logical cores (48 on the paper's servers).
	Cores int
	// Quantum is the server scheduling quantum. Windows Server uses
	// long fixed quanta (~190 ms at default tick settings); threads at
	// equal priority are not preempted before expiry, which is exactly
	// why an unrestricted CPU bully is so damaging (Fig. 4). The
	// default is calibrated slightly above the OS figure so the
	// no-isolation drop rate lands in the paper's 11-32% band.
	Quantum sim.Duration
	// ThrottleCheck is the granularity at which windowed cycle budgets
	// are enforced.
	ThrottleCheck sim.Duration
	// EvictionLatency delays the eviction of a running thread after an
	// affinity change excludes its core, modeling dispatcher
	// propagation on a real OS. Zero (the default) evicts in the same
	// event — the idealization the calibrated experiments use; the
	// eviction-latency ablation sweeps this to show how the required
	// buffer size grows with rescue latency.
	EvictionLatency sim.Duration
	// DispatchOverhead is charged (as OS time) per context switch.
	DispatchOverhead sim.Duration
}

// DefaultConfig mirrors the evaluation hardware.
func DefaultConfig() Config {
	return Config{
		Cores:            48,
		Quantum:          300 * sim.Millisecond,
		ThrottleCheck:    500 * sim.Microsecond,
		DispatchOverhead: 2 * sim.Microsecond,
	}
}

// Machine is a simulated multicore server.
type Machine struct {
	eng  *sim.Engine
	cfg  Config
	rng  *sim.RNG
	core []*core

	idleMask    CPUSet
	acct        *stats.CPUAccounting
	procs       []*Process
	nextThread  int
	queuedCount int // total threads sitting in run queues
	slicePool   []*sliceEvent

	// pendingEvictions counts delayed evictions scheduled by evictLater
	// that have not fired yet; ready waits beginning while it is
	// non-zero blame the eviction stall.
	pendingEvictions int
	trace            *simtrace.Tracer

	dispatchOverheadTotal sim.Duration

	// ContextSwitches counts dispatches, for diagnostics.
	ContextSwitches uint64
}

// New creates a machine driven by eng.
func New(eng *sim.Engine, rng *sim.RNG, cfg Config) *Machine {
	if cfg.Cores <= 0 || cfg.Cores > 64 {
		panic(fmt.Sprintf("cpumodel: invalid core count %d", cfg.Cores))
	}
	if cfg.Quantum <= 0 {
		panic("cpumodel: non-positive quantum")
	}
	m := &Machine{eng: eng, cfg: cfg, rng: rng}
	m.core = make([]*core, cfg.Cores)
	for i := range m.core {
		m.core[i] = &core{id: i, idleStart: eng.Now()}
	}
	m.idleMask = AllCores(cfg.Cores)
	m.acct = stats.NewCPUAccounting(cfg.Cores, eng.Now())
	return m
}

// Engine returns the driving event engine.
func (m *Machine) Engine() *sim.Engine { return m.eng }

// SetSimTracer attaches a sim-domain tracer to the machine (nil
// detaches). It is the one attach point for everything simulated on
// the machine: the machine itself records per-core execution slices,
// one trace track per core, and the services and controllers running
// on it read the tracer through SimTracer. With no tracer attached the
// hot path pays a single nil check per scheduling event.
func (m *Machine) SetSimTracer(tr *simtrace.Tracer) {
	m.trace = tr
	if tr != nil {
		for _, c := range m.core {
			tr.NameTrack(c.id, fmt.Sprintf("core %d", c.id))
		}
	}
}

// SimTracer returns the attached sim-domain tracer, nil when the
// machine is untraced.
func (m *Machine) SimTracer() *simtrace.Tracer { return m.trace }

// traceSlice emits the execution slice ending now on core c.
func (m *Machine) traceSlice(c *core, t *Thread, now sim.Time) {
	if d := now.Sub(c.sliceStart); d > 0 {
		m.trace.Slice(c.sliceStart, d, c.id, t.Proc.Name, "cpu",
			simtrace.KV{Key: "tid", Value: strconv.Itoa(t.ID)})
	}
}

// Cores reports the logical core count.
func (m *Machine) Cores() int { return m.cfg.Cores }

// Quantum reports the scheduling quantum.
func (m *Machine) Quantum() sim.Duration { return m.cfg.Quantum }

// NewProcess registers a process with full affinity.
func (m *Machine) NewProcess(name string, class stats.Class) *Process {
	p := &Process{
		Name:     name,
		Class:    class,
		m:        m,
		affinity: AllCores(m.cfg.Cores),
	}
	m.procs = append(m.procs, p)
	return p
}

// IdleMask returns the current idle-core bitmask: the low-latency,
// low-overhead "system call" of §3.1.1.
func (m *Machine) IdleMask() CPUSet { return m.idleMask }

// IdleCount returns the number of idle cores.
func (m *Machine) IdleCount() int { return m.idleMask.Count() }

// QueuedThreads reports how many ready threads are waiting in run queues.
func (m *Machine) QueuedThreads() int { return m.queuedCount }

// Accounting exposes per-class CPU accounting, accrued to now.
func (m *Machine) Accounting() *stats.CPUAccounting {
	m.AccrueAll()
	return m.acct
}

// Breakdown reports the utilization breakdown at the machine's current
// time.
func (m *Machine) Breakdown() stats.Breakdown {
	m.AccrueAll()
	return m.acct.Breakdown(m.eng.Now())
}

// ResetAccounting discards utilization history and restarts accounting
// at the current time; experiments call it at the end of their warmup
// phase so reported shares cover only the measured window.
func (m *Machine) ResetAccounting() {
	m.AccrueAll()
	m.acct = stats.NewCPUAccounting(m.cfg.Cores, m.eng.Now())
}

// AccrueAll charges all in-flight run and idle intervals up to now, so
// samples taken between scheduling events are exact.
func (m *Machine) AccrueAll() {
	now := m.eng.Now()
	for _, c := range m.core {
		if c.running != nil {
			m.accrueRun(c, now)
		} else {
			m.accrueIdle(c, now)
		}
	}
}

func (m *Machine) accrueRun(c *core, now sim.Time) {
	d := now.Sub(c.runStart)
	if d <= 0 {
		return
	}
	p := c.running.Proc
	m.acct.Accumulate(p.Class, d)
	p.cpuTime += d
	c.running.fxRun += d
	if p.capFrac > 0 {
		p.windowUsed += d
	}
	c.runStart = now
}

func (m *Machine) accrueIdle(c *core, now sim.Time) {
	d := now.Sub(c.idleStart)
	if d <= 0 {
		return
	}
	m.acct.Accumulate(stats.ClassIdle, d)
	c.idleStart = now
}

// Spawn creates a ready thread for p with the given burst length and
// thread affinity (use AllCores for no thread-level restriction). onDone
// may be nil.
func (m *Machine) Spawn(p *Process, burst sim.Duration, aff CPUSet, onDone func()) *Thread {
	if burst <= 0 {
		panic("cpumodel: non-positive burst")
	}
	m.nextThread++
	t := &Thread{
		ID:        m.nextThread,
		Proc:      p,
		Affinity:  aff,
		Remaining: burst,
		State:     StateParked,
		OnDone:    onDone,
		ideal:     m.nextThread % m.cfg.Cores,
		core:      -1,
		parkedAt:  m.eng.Now(),
	}
	p.addThread(t)
	m.makeReady(t)
	return t
}

// makeReady places a thread: an idle core in its effective affinity if
// one exists (ideal core first), else the least-loaded allowed run queue.
func (m *Machine) makeReady(t *Thread) {
	if t.State == StateDone {
		return
	}
	now := m.eng.Now()
	if t.State == StateParked {
		t.fxPark += now.Sub(t.parkedAt)
	}
	t.readyAt = now
	if t.Proc.frozen {
		m.park(t)
		return
	}
	eff := t.eff()
	if eff.IsEmpty() {
		m.park(t)
		return
	}
	idle := eff & m.idleMask
	if !idle.IsEmpty() {
		target := idle.Lowest()
		if idle.Has(t.ideal) {
			target = t.ideal
		}
		m.dispatch(m.core[target], t)
		return
	}
	// No idle core available: enqueue on the shortest allowed queue.
	// The same sweep notes whether any eligible core is running
	// batch-class work, which decides the forensic blame for the wait
	// that starts here.
	best := -1
	bestLen := int(^uint(0) >> 1)
	sawBatch := false
	eff.ForEach(func(i int) {
		ci := m.core[i]
		if r := ci.running; r != nil && !r.Proc.boosted() {
			sawBatch = true
		}
		if l := len(ci.queue); l < bestLen {
			best, bestLen = i, l
		}
	})
	c := m.core[best]
	t.State = StateReady
	t.core = best
	t.waitKind = waitQueue
	if t.Proc.boosted() {
		if m.pendingEvictions > 0 {
			t.waitKind = waitEvict
		} else if sawBatch {
			t.waitKind = waitHarvest
		}
	}
	// Wake boost: primary-class threads queue ahead of batch-class
	// threads (FIFO within each band), mirroring the dynamic-priority
	// boost Windows grants threads waking from a wait. This is what
	// keeps an unrestricted CPU bully from starving the service
	// entirely — the paper's no-isolation case shows heavy-but-partial
	// drops, not a total collapse.
	pos := len(c.queue)
	if t.Proc.boosted() {
		for i, q := range c.queue {
			if !q.Proc.boosted() {
				pos = i
				break
			}
		}
	}
	c.queue = append(c.queue, nil)
	copy(c.queue[pos+1:], c.queue[pos:])
	c.queue[pos] = t
	m.queuedCount++
}

// boosted reports whether the process's threads receive the wake-time
// priority boost (latency-sensitive and OS classes do; batch does not).
func (p *Process) boosted() bool {
	return p.Class == stats.ClassPrimary || p.Class == stats.ClassOS
}

func (m *Machine) park(t *Thread) {
	t.State = StateParked
	t.core = -1
	t.parkedAt = m.eng.Now()
	t.Proc.parked = append(t.Proc.parked, t)
}

// accrueWait charges the ready wait that ends now to the blame bucket
// chosen when the wait began, and restarts the wait clock.
func (m *Machine) accrueWait(t *Thread, now sim.Time) {
	d := now.Sub(t.readyAt)
	if d <= 0 {
		return
	}
	switch t.waitKind {
	case waitHarvest:
		t.fxHarvest += d
	case waitEvict:
		t.fxEvict += d
	default:
		t.fxQueue += d
	}
	t.readyAt = now
}

// classifyWait picks the blame bucket for a ready wait beginning now:
// primary/OS threads waiting while a delayed batch eviction is
// pending blame the eviction stall; waiting while batch threads
// occupy eligible cores blames the harvest; everything else is plain
// queueing.
func (m *Machine) classifyWait(t *Thread) uint8 {
	if !t.Proc.boosted() {
		return waitQueue
	}
	if m.pendingEvictions > 0 {
		return waitEvict
	}
	sawBatch := false
	t.eff().ForEach(func(i int) {
		if r := m.core[i].running; r != nil && !r.Proc.boosted() {
			sawBatch = true
		}
	})
	if sawBatch {
		return waitHarvest
	}
	return waitQueue
}

// dispatch starts t on idle core c and schedules its slice event.
func (m *Machine) dispatch(c *core, t *Thread) {
	if c.running != nil {
		panic("cpumodel: dispatch to busy core")
	}
	now := m.eng.Now()
	m.accrueIdle(c, now)
	m.accrueWait(t, now)
	m.idleMask = m.idleMask.Without(c.id)
	// Dispatch overhead is tracked separately rather than accumulated
	// into the class accounting, so that Σ(class time) == capacity holds
	// exactly; OS overhead visible in breakdowns comes from the
	// housekeeping workload instead.
	m.dispatchOverheadTotal += m.cfg.DispatchOverhead
	c.running = t
	c.sliceStart = now
	c.runStart = now
	c.epoch++
	t.State = StateRunning
	t.core = c.id
	m.ContextSwitches++
	m.scheduleSlice(c)
}

// scheduleSlice arms the next slice event for the core's running thread:
// burst completion or quantum expiry, whichever comes first.
func (m *Machine) scheduleSlice(c *core) {
	t := c.running
	slice := m.cfg.Quantum
	completes := false
	if t.Remaining <= slice {
		slice = t.Remaining
		completes = true
	}
	ev := m.getSliceEvent()
	ev.c, ev.t, ev.epoch, ev.completes = c, t, c.epoch, completes
	c.sliceEv = ev
	c.sliceTimer = m.eng.AfterTimer(slice, ev.fn)
}

// completeSlice retires the running thread's burst.
func (m *Machine) completeSlice(c *core) {
	now := m.eng.Now()
	t := c.running
	m.accrueRun(c, now)
	if m.trace != nil {
		m.traceSlice(c, t, now)
	}
	t.Remaining = 0
	t.State = StateDone
	t.core = -1
	t.Proc.dropThread()
	c.running = nil
	c.epoch++
	m.pickNext(c)
	if t.OnDone != nil {
		t.OnDone()
	}
}

// expireQuantum round-robins the core's queue at quantum expiry.
func (m *Machine) expireQuantum(c *core) {
	now := m.eng.Now()
	t := c.running
	m.accrueRun(c, now)
	if m.trace != nil {
		m.traceSlice(c, t, now)
	}
	t.Remaining -= now.Sub(c.sliceStart)
	if t.Remaining <= 0 {
		// Defensive: should have been a completion.
		t.Remaining = 1
	}
	if len(c.queue) == 0 && t.eff().Has(c.id) {
		// Nothing waiting and still allowed here: keep running, fresh
		// quantum. (A thread awaiting delayed eviction is migrated at
		// expiry instead.)
		c.sliceStart = now
		c.epoch++
		m.scheduleSlice(c)
		return
	}
	// Requeue at the tail, run the head.
	c.running = nil
	c.epoch++
	t.State = StateReady
	t.readyAt = now
	t.waitKind = m.classifyWait(t)
	c.queue = append(c.queue, t)
	m.queuedCount++
	m.pickNext(c)
}

// pickNext runs the core's queue head; with an empty queue it pulls the
// oldest eligible queued thread from any other core (immediate idle
// balancing), else the core goes idle.
func (m *Machine) pickNext(c *core) {
	for len(c.queue) > 0 {
		t := c.queue[0]
		c.queue = c.queue[1:]
		m.queuedCount--
		if t.State != StateReady {
			continue // killed or migrated while queued
		}
		if !t.eff().Has(c.id) {
			// Affinity changed while queued; re-place elsewhere.
			t.core = -1
			m.makeReady(t)
			continue
		}
		m.idleMask = m.idleMask.With(c.id) // dispatch expects an idle core
		c.idleStart = m.eng.Now()
		m.dispatch(c, t)
		return
	}
	// Own queue empty: steal the oldest eligible waiter machine-wide.
	if m.queuedCount > 0 {
		if t := m.oldestEligible(c.id); t != nil {
			m.remove(t)
			m.idleMask = m.idleMask.With(c.id)
			c.idleStart = m.eng.Now()
			m.dispatch(c, t)
			return
		}
	}
	m.idleMask = m.idleMask.With(c.id)
	c.idleStart = m.eng.Now()
}

// oldestEligible finds the queued thread with the earliest readyAt whose
// effective affinity admits the given core.
func (m *Machine) oldestEligible(coreID int) *Thread {
	var best *Thread
	for _, c := range m.core {
		for _, t := range c.queue {
			if t.State != StateReady || !t.eff().Has(coreID) {
				continue
			}
			if best == nil || t.readyAt < best.readyAt {
				best = t
			}
		}
	}
	return best
}

// remove takes a ready thread out of its queue.
func (m *Machine) remove(t *Thread) {
	if t.State != StateReady || t.core < 0 {
		panic("cpumodel: remove of non-queued thread")
	}
	c := m.core[t.core]
	q := c.queue
	idx := -1
	for i, x := range q {
		if x == t {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("cpumodel: queued thread not found in its queue")
	}
	c.queue = append(q[:idx], q[idx+1:]...)
	m.queuedCount--
	m.accrueWait(t, m.eng.Now())
	t.core = -1
}

// preempt takes a running thread off its core, charging its partial
// slice. The core then schedules other work.
func (m *Machine) preempt(t *Thread) {
	c := m.core[t.core]
	if c.running != t {
		panic("cpumodel: preempt of non-running thread")
	}
	now := m.eng.Now()
	m.accrueRun(c, now)
	if m.trace != nil {
		m.traceSlice(c, t, now)
	}
	t.Remaining -= now.Sub(c.sliceStart)
	if t.Remaining <= 0 {
		t.Remaining = 1
	}
	c.running = nil
	c.epoch++
	t.core = -1
	// The armed slice event is now stale; cancel it so it never
	// surfaces (it would have been an epoch-check no-op) and reclaim
	// its record.
	if m.eng.Cancel(c.sliceTimer) {
		ev := c.sliceEv
		ev.c, ev.t = nil, nil
		m.slicePool = append(m.slicePool, ev)
	}
	c.sliceEv = nil
	m.pickNext(c)
}

// SetAffinity updates a process's affinity mask. Running threads outside
// the new mask are evicted — immediately with the default configuration
// (the property blind isolation relies on for its sub-millisecond rescue
// path), or after Config.EvictionLatency when the dispatcher-propagation
// delay is being modeled. Parked threads whose affinity becomes
// non-empty are re-placed.
func (m *Machine) SetAffinity(p *Process, mask CPUSet) {
	p.affinity = mask
	var displaced []*Thread
	// p.threads is kept in ID order (tombstones skipped), so the sweep
	// visits threads exactly as the old sorted snapshot did — thread
	// handling order reaches scheduling decisions, and any other order
	// would break bit-identical reproduction.
	for _, t := range p.threads {
		switch t.State {
		case StateRunning:
			if !t.eff().Has(t.core) {
				if m.cfg.EvictionLatency > 0 {
					m.evictLater(t)
				} else {
					m.preempt(t)
					displaced = append(displaced, t)
				}
			}
		case StateReady:
			if !t.eff().Has(t.core) {
				m.remove(t)
				displaced = append(displaced, t)
			}
		}
	}
	for _, t := range displaced {
		m.makeReady(t)
	}
	if !mask.IsEmpty() && !p.frozen {
		m.unparkAll(p)
	}
	m.pullIdle()
}

// evictLater schedules a delayed eviction of a running thread whose
// affinity no longer admits its core — modeling the time a real
// dispatcher takes to notice an affinity change and reschedule the
// thread. The check re-validates at fire time: the thread may have
// finished, been killed, or had its affinity restored meanwhile.
func (m *Machine) evictLater(t *Thread) {
	coreAt := t.core
	m.pendingEvictions++
	m.eng.After(m.cfg.EvictionLatency, func() {
		m.pendingEvictions--
		if t.State != StateRunning || t.core != coreAt || t.eff().Has(t.core) {
			return
		}
		m.preempt(t)
		m.makeReady(t)
	})
}

// pullIdle lets every idle core grab eligible queued work; called after
// affinity widens, since queued threads otherwise wait for the next
// scheduling event on their own core.
func (m *Machine) pullIdle() {
	for m.queuedCount > 0 {
		pulled := false
		idle := m.idleMask
		for mask := idle; !mask.IsEmpty(); {
			id := mask.Lowest()
			mask = mask.Without(id)
			t := m.oldestEligible(id)
			if t == nil {
				continue
			}
			m.remove(t)
			m.dispatch(m.core[id], t)
			pulled = true
		}
		if !pulled {
			return
		}
	}
}

// unparkAll re-places every parked thread of p.
func (m *Machine) unparkAll(p *Process) {
	parked := p.parked
	p.parked = nil
	for _, t := range parked {
		if t.State == StateParked {
			m.makeReady(t)
		}
	}
}

// Cancel terminates a single thread without firing OnDone; services use
// it to abandon the in-flight workers of a query that hit its deadline.
// Cancelling a Done thread is a no-op.
func (m *Machine) Cancel(t *Thread) {
	switch t.State {
	case StateDone:
		return
	case StateRunning:
		m.preempt(t)
	case StateReady:
		m.remove(t)
	case StateParked:
		// Leave it in the parked slice; unparkAll skips Done threads.
		t.fxPark += m.eng.Now().Sub(t.parkedAt)
	}
	t.State = StateDone
	t.Proc.dropThread()
}

// Kill terminates every thread of p without firing OnDone.
func (m *Machine) Kill(p *Process) {
	for _, t := range p.threads {
		if t.State == StateDone {
			continue
		}
		switch t.State {
		case StateRunning:
			m.preempt(t)
		case StateReady:
			m.remove(t)
		}
		t.State = StateDone
	}
	p.threads = nil
	p.live = 0
	p.parked = nil
}

// SetCycleCap enables windowed CPU rate control for p: the process may
// consume frac of total machine cycles per window. The budget is burned
// while any of p's threads run; once exhausted the whole process freezes
// until the window ends — a token-bucket duty cycle, which is how both
// Windows CPU rate control and cgroups cpu.cfs_quota behave, and the
// mechanism behind the cascading delays of Fig. 7. frac <= 0 disables.
func (m *Machine) SetCycleCap(p *Process, frac float64, window sim.Duration) {
	p.capFrac = frac
	p.capWindow = window
	p.windowUsed = 0
	if frac <= 0 {
		if p.frozen {
			p.frozen = false
			m.unparkAll(p)
		}
		p.throttleOn = false
		return
	}
	if window <= 0 {
		panic("cpumodel: non-positive throttle window")
	}
	if p.throttleOn {
		return
	}
	p.throttleOn = true
	m.runThrottle(p)
	// Window reset ticker.
	m.eng.Ticker(window, func() bool {
		if p.capFrac <= 0 {
			p.throttleOn = false
			return false
		}
		p.windowUsed = 0
		if p.frozen {
			p.frozen = false
			p.wakeCounter++
			m.unparkAll(p)
		}
		return true
	})
}

// runThrottle polls the process's window budget at ThrottleCheck
// granularity and freezes it upon exhaustion.
func (m *Machine) runThrottle(p *Process) {
	m.eng.Ticker(m.cfg.ThrottleCheck, func() bool {
		if p.capFrac <= 0 {
			return false
		}
		if p.frozen {
			return true
		}
		m.AccrueAll()
		budget := sim.Duration(p.capFrac * float64(p.capWindow) * float64(m.cfg.Cores))
		if p.windowUsed >= budget {
			m.freeze(p)
		}
		return true
	})
}

// freeze parks every live thread of p until the window resets.
func (m *Machine) freeze(p *Process) {
	p.frozen = true
	var victims []*Thread
	for _, t := range p.threads {
		switch t.State {
		case StateRunning:
			m.preempt(t)
			victims = append(victims, t)
		case StateReady:
			m.remove(t)
			victims = append(victims, t)
		}
	}
	for _, t := range victims {
		m.park(t)
	}
}

// CheckInvariants panics if internal bookkeeping is inconsistent; tests
// call it after stress runs.
func (m *Machine) CheckInvariants() {
	queued := 0
	for _, c := range m.core {
		if c.running != nil {
			if m.idleMask.Has(c.id) {
				panic(fmt.Sprintf("core %d running but marked idle", c.id))
			}
			if c.running.State != StateRunning {
				panic(fmt.Sprintf("core %d running thread in state %v", c.id, c.running.State))
			}
			if !c.running.eff().Has(c.id) && m.cfg.EvictionLatency == 0 {
				// With delayed eviction this state is legal for up to
				// EvictionLatency after an affinity shrink.
				panic(fmt.Sprintf("core %d runs thread outside its affinity %v", c.id, c.running.eff()))
			}
		} else if !m.idleMask.Has(c.id) {
			panic(fmt.Sprintf("core %d idle but not in idle mask", c.id))
		}
		for _, t := range c.queue {
			if t.State == StateReady {
				queued++
			}
		}
	}
	if queued != m.queuedCount {
		panic(fmt.Sprintf("queuedCount=%d but %d ready threads in queues", m.queuedCount, queued))
	}
}
