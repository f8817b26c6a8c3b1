package indexserve

import (
	"strconv"

	"perfiso/internal/cpumodel"
	"perfiso/internal/diskmodel"
	"perfiso/internal/netmodel"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// Config calibrates the service. DefaultConfig reproduces the paper's
// standalone profile on the 48-core machine model.
type Config struct {
	// WorkersMin/Max bound the per-query matcher burst (§2.1: up to 15
	// threads ready within 5 µs).
	WorkersMin, WorkersMax int
	// BurstSpread is the window within which the burst's threads wake.
	BurstSpread sim.Duration

	// DominantMedian/Sigma shape the log-normal demand of the query's
	// dominant matcher, which determines standalone latency.
	DominantMedian sim.Duration
	DominantSigma  float64
	// HelperMedian/Sigma shape the remaining matchers: short bursts
	// that create the thread-wakeup spike without dominating latency.
	HelperMedian sim.Duration
	HelperSigma  float64
	// RankCost is the serial aggregation/ranking stage after matching.
	RankCost sim.Duration

	// Deadline drops a query that has not completed (timeouts in §6.1.2
	// show up as latency capped near 350 ms).
	Deadline sim.Duration

	// SpecCheckpoint triggers compensation: a query still running at
	// arrival+SpecCheckpoint spawns SpecWorkers extra bursts of
	// SpecBurst each. They never gate completion — pure added load.
	SpecCheckpoint sim.Duration
	SpecWorkers    int
	SpecBurst      sim.Duration
	// SpecInFlightCap disables compensation while more than this many
	// queries are in flight: target-driven parallelism predicts that
	// extra workers cannot help a saturated machine, which is what
	// keeps the mechanism from cascading under overload. Zero means no
	// cap.
	SpecInFlightCap int

	// CacheMissProb is the chance a matcher needs an index read from
	// SSD before computing; MissReadBytes is the read size.
	CacheMissProb float64
	MissReadBytes int64
	// LogBytes is written per completed query to the (shared) HDD
	// volume, asynchronously.
	LogBytes int64
	// ResponseBytes is the egress size of a completed query's reply,
	// sent at high priority through the machine's NIC when one is
	// attached (the traffic PerfIso's egress deprioritization protects,
	// §3.2). Zero disables response traffic.
	ResponseBytes int64
}

// DefaultConfig returns the calibrated IndexServe profile.
func DefaultConfig() Config {
	return Config{
		WorkersMin:     4,
		WorkersMax:     15,
		BurstSpread:    5 * sim.Microsecond,
		DominantMedian: 3500 * sim.Microsecond,
		DominantSigma:  0.50,
		HelperMedian:   60 * sim.Microsecond,
		HelperSigma:    0.80,
		RankCost:       250 * sim.Microsecond,
		Deadline:       350 * sim.Millisecond,
		SpecCheckpoint: 8 * sim.Millisecond,
		// Compensation adds ~37% of a query's mean cost when it falls
		// behind — enough to reproduce the primary-CPU rise of Fig. 4b
		// without cascading into instability at peak load (TPC-style
		// re-parallelization helps the query, it does not double it).
		SpecWorkers:     3,
		SpecBurst:       600 * sim.Microsecond,
		SpecInFlightCap: 64,
		CacheMissProb:   0.15,
		MissReadBytes:   64 << 10,
		LogBytes:        4 << 10,
		ResponseBytes:   24 << 10,
	}
}

// Server is one IndexServe instance bound to a machine.
type Server struct {
	cfg Config
	eng *sim.Engine
	cpu *cpumodel.Machine
	// Proc is the service process; it always runs unrestricted.
	Proc *cpumodel.Process
	// SSD holds the index slice (exclusive); HDD receives logs (shared
	// with the secondary). Either may be nil to disable disk modeling.
	SSD *diskmodel.Volume
	HDD *diskmodel.Volume

	// Latency records every query, with drops capped at the deadline —
	// matching how the paper's P99 saturates at ≈349 ms.
	Latency   *stats.Histogram
	Completed uint64
	Dropped   uint64
	// OnResponse, when set, is called exactly once for every finished
	// query, completed or dropped, with its ID, latency (the deadline
	// for drops) and critical-path forensic record. It is the server's
	// only outcome channel: cells collect forensics and windowed tails
	// here, and the cluster aggregators do their MLA fan-in. It is a
	// pure observer: the record is derived from bookkeeping the server
	// maintains anyway, so installing it changes no outcome.
	OnResponse func(simtrace.QueryRecord)

	nic      *netmodel.NIC
	inFlight int
}

// AttachNIC routes completed-query replies through the machine's
// egress NIC at high priority. Response transmission is asynchronous
// and does not gate the recorded query latency (the paper measures
// service time; the NIC protects throughput).
func (s *Server) AttachNIC(nic *netmodel.NIC) { s.nic = nic }

type query struct {
	id          int
	arrival     sim.Time
	rng         sim.RNG
	outstanding int
	done        bool
	threads     []*cpumodel.Thread
	// deadline and spec are cancelled at finish so a completed query
	// leaves nothing behind in the event heap; both events were pure
	// no-ops once done was set, so cancelling them changes no outcome.
	deadline sim.Timer
	spec     sim.Timer

	// Per-matcher forensic bookkeeping. critical is the index of the
	// worker whose completion released ranking (-1 until known); rank
	// is the serial aggregation thread.
	workers  []qworker
	critical int
	rank     *cpumodel.Thread
}

// qworker tracks one matcher burst for critical-path attribution.
// The wake event fires exactly at planned, and a cache miss submits
// its SSD read in that same event, so started-planned is precisely
// the disk gate and planned-arrival the deliberate wake spread.
type qworker struct {
	t        *cpumodel.Thread // nil until the burst is spawned
	planned  sim.Time
	started  sim.Time
	finished bool
}

// New binds a server to a machine. ssd and hdd may be nil.
func New(m *cpumodel.Machine, cfg Config, ssd, hdd *diskmodel.Volume) *Server {
	if cfg.WorkersMin < 1 || cfg.WorkersMax < cfg.WorkersMin {
		panic("indexserve: invalid worker bounds")
	}
	if cfg.Deadline <= 0 {
		panic("indexserve: non-positive deadline")
	}
	return &Server{
		cfg:     cfg,
		eng:     m.Engine(),
		cpu:     m,
		Proc:    m.NewProcess("indexserve", stats.ClassPrimary),
		SSD:     ssd,
		HDD:     hdd,
		Latency: stats.NewHistogram(),
	}
}

// Config returns the server's calibration.
func (s *Server) Config() Config { return s.cfg }

// InFlight reports queries currently being processed.
func (s *Server) InFlight() int { return s.inFlight }

// DropRate reports the fraction of queries dropped so far.
func (s *Server) DropRate() float64 {
	total := s.Completed + s.Dropped
	if total == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(total)
}

// Submit starts processing a query now. The spec's seed makes its
// demand draw reproducible across runs and policies.
func (s *Server) Submit(spec workload.QuerySpec) {
	q := &query{
		id:       spec.ID,
		arrival:  s.eng.Now(),
		rng:      sim.SeededRNG(spec.Seed),
		critical: -1,
	}
	s.inFlight++

	k := q.rng.IntBetween(s.cfg.WorkersMin, s.cfg.WorkersMax)
	q.outstanding = k
	q.workers = make([]qworker, k)
	all := cpumodel.AllCores(s.cpu.Cores())
	if tr := s.cpu.SimTracer(); tr != nil {
		tr.Begin(q.arrival, q.id, "query", "query",
			simtrace.KV{Key: "workers", Value: strconv.Itoa(k)})
	}

	for i := 0; i < k; i++ {
		idx := i
		demand := s.workerDemand(q, i)
		wake := sim.Duration(0)
		if k > 1 {
			wake = s.cfg.BurstSpread * sim.Duration(i) / sim.Duration(k)
		}
		q.workers[i].planned = q.arrival.Add(wake)
		miss := s.SSD != nil && q.rng.Float64() < s.cfg.CacheMissProb
		s.eng.After(wake, func() {
			if q.done {
				return
			}
			if miss {
				// Index read gates this matcher's start.
				s.SSD.Submit(&diskmodel.Request{
					Proc:       s.Proc.Name,
					Kind:       diskmodel.OpRead,
					Bytes:      s.cfg.MissReadBytes,
					Sequential: false,
					OnComplete: func() { s.startWorker(q, idx, demand, all) },
				})
				return
			}
			s.startWorker(q, idx, demand, all)
		})
	}

	// Deadline: unanswered queries are dropped and their workers
	// abandoned.
	q.deadline = s.eng.AfterTimer(s.cfg.Deadline, func() {
		if q.done {
			return
		}
		s.finish(q, true)
	})

	// Compensation checkpoint (target-driven parallelism).
	if s.cfg.SpecWorkers > 0 {
		q.spec = s.eng.AfterTimer(s.cfg.SpecCheckpoint, func() {
			if q.done {
				return
			}
			if s.cfg.SpecInFlightCap > 0 && s.inFlight > s.cfg.SpecInFlightCap {
				return
			}
			if tr := s.cpu.SimTracer(); tr != nil {
				tr.Instant(s.eng.Now(), simtrace.TrackControl, "spec-checkpoint", "query",
					simtrace.KV{Key: "query", Value: strconv.Itoa(q.id)})
			}
			for i := 0; i < s.cfg.SpecWorkers; i++ {
				t := s.cpu.Spawn(s.Proc, s.cfg.SpecBurst, all, nil)
				q.threads = append(q.threads, t)
			}
		})
	}
}

func (s *Server) workerDemand(q *query, i int) sim.Duration {
	if i == 0 {
		return q.rng.LogNormalDuration(s.cfg.DominantMedian, s.cfg.DominantSigma)
	}
	return q.rng.LogNormalDuration(s.cfg.HelperMedian, s.cfg.HelperSigma)
}

func (s *Server) startWorker(q *query, idx int, demand sim.Duration, aff cpumodel.CPUSet) {
	if q.done {
		return
	}
	t := s.cpu.Spawn(s.Proc, demand, aff, func() {
		if q.done {
			return
		}
		q.workers[idx].finished = true
		q.outstanding--
		if q.outstanding == 0 {
			q.critical = idx
			s.rank(q)
		}
	})
	q.workers[idx].t = t
	q.workers[idx].started = s.eng.Now()
	q.threads = append(q.threads, t)
}

// rank runs the serial aggregation stage, after which the query
// completes.
func (s *Server) rank(q *query) {
	t := s.cpu.Spawn(s.Proc, s.cfg.RankCost, cpumodel.AllCores(s.cpu.Cores()), func() {
		if q.done {
			return
		}
		s.finish(q, false)
	})
	q.rank = t
	q.threads = append(q.threads, t)
}

func (s *Server) finish(q *query, dropped bool) {
	q.done = true
	s.inFlight--
	// Revoke the pending deadline/compensation events; each would be a
	// no-op now that done is set, so cancellation only trims the heap.
	// (When finish IS the deadline firing, its own Cancel is a no-op.)
	s.eng.Cancel(q.deadline)
	s.eng.Cancel(q.spec)
	for _, t := range q.threads {
		s.cpu.Cancel(t)
	}
	latency := s.eng.Now().Sub(q.arrival)
	if dropped {
		latency = s.cfg.Deadline
		s.Dropped++
	} else {
		s.Completed++
	}
	s.Latency.AddDuration(latency)
	if !dropped && s.HDD != nil && s.cfg.LogBytes > 0 {
		s.HDD.Submit(&diskmodel.Request{
			Proc:       s.Proc.Name,
			Kind:       diskmodel.OpWrite,
			Bytes:      s.cfg.LogBytes,
			Sequential: true,
		})
	}
	if !dropped && s.nic != nil && s.cfg.ResponseBytes > 0 {
		s.nic.Send(&netmodel.Packet{
			Proc:  s.Proc.Name,
			Class: netmodel.PriorityHigh,
			Bytes: s.cfg.ResponseBytes,
		})
	}
	if tr := s.cpu.SimTracer(); tr != nil {
		drop := "false"
		if dropped {
			drop = "true"
		}
		tr.End(s.eng.Now(), q.id, "query", "query",
			simtrace.KV{Key: "dropped", Value: drop},
			simtrace.KV{Key: "latency_us", Value: strconv.FormatInt(int64(latency)/1000, 10)})
	}
	if s.OnResponse != nil {
		s.OnResponse(s.forensics(q, latency, dropped))
	}
}

// forensics decomposes the query's latency along its critical path.
// Called after the query's threads were cancelled, so every in-flight
// run/wait interval has been charged to its thread's accumulators and
// each thread's forensic partition covers spawn-to-end exactly.
func (s *Server) forensics(q *query, latency sim.Duration, dropped bool) simtrace.QueryRecord {
	rec := simtrace.QueryRecord{ID: q.id, Dropped: dropped, Latency: latency}
	// The critical worker: for completed queries (and drops that reached
	// ranking) the matcher whose completion released the rank stage; for
	// earlier drops the first still-unfinished matcher — every
	// unfinished matcher spans the whole latency window, so index order
	// is a deterministic and exact choice.
	idx := q.critical
	if idx < 0 {
		for i := range q.workers {
			if !q.workers[i].finished {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		// No unfinished matcher and ranking never started: nothing to
		// attribute beyond the residual (cannot happen in practice).
		rec.Other = latency
		return rec
	}
	w := &q.workers[idx]
	rec.Spread = w.planned.Sub(q.arrival)
	if w.t != nil {
		rec.Disk = w.started.Sub(w.planned)
		run, queue, harvest, evict, parked := w.t.ForensicTimes()
		rec.Service += run
		rec.Queue += queue
		rec.Harvest += harvest
		rec.Evict += evict
		rec.Throttle += parked
	} else {
		// Dropped while still gated on the index read: the whole
		// remainder is disk wait.
		rec.Disk = q.arrival.Add(latency).Sub(w.planned)
	}
	if q.rank != nil {
		run, queue, harvest, evict, parked := q.rank.ForensicTimes()
		rec.Service += run
		rec.Queue += queue
		rec.Harvest += harvest
		rec.Evict += evict
		rec.Throttle += parked
	}
	rec.Other = latency - rec.Attributed()
	return rec
}
