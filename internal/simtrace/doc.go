// Package simtrace captures what happens *inside* the simulated
// system — per-query lifecycle spans, per-core execution slices, and
// controller decisions — on the simulated clock, and decomposes each
// query's latency into attributed causes.
//
// It is the sim-domain counterpart of internal/obs, which instruments
// the harness (wall clock, run-wide counters). Everything here is
// stamped with sim time plus a per-tracer sequence number, so a trace
// is a pure function of the seed: re-running the same cell yields the same
// bytes, at any worker count, on any machine.
//
// # Span model
//
// A Tracer accumulates four kinds of events:
//
//   - Slices ("X" in Chrome trace-event terms): a thread occupying a
//     core for a duration. One track per core, named by metadata.
//   - Async begin/end pairs ("b"/"e"): one per query, keyed by the
//     query id, from arrival to completion or deadline drop.
//   - Instants ("i"): blind-isolation decisions — buffer grow/shrink,
//     including the kill switch's jump to the full machine, and
//     holdoff deferrals — and the query milestone of a
//     speculative-retry (spec-checkpoint) firing.
//   - Track metadata: human-readable names for the core tracks.
//
// Event emission is nil-gated: every Tracer method is safe on a nil
// receiver, so the tracing-off hot path pays one predictable branch.
// The simulated machine carries the tracer: cpumodel.Machine.SetSimTracer
// is the only attach point, the machine records its core slices, and
// everything running on it — the IndexServe server's query spans and
// milestones, the blind-isolation governor's decisions — reads the
// tracer back through Machine.SimTracer, which is nil unless tracing
// was requested. The harness hands the tracer to a cell alongside its
// engine (experiments.Cell.Run); the single-machine cells attach it
// to their machine after installing the isolation policy, and cells
// that do not support tracing ignore it.
//
// # Attribution categories
//
// The forensics pass partitions each measured query's latency into
// named causes, computed by critical-path analysis over the worker
// thread whose completion released the query (or, for deadline drops,
// the first worker still in flight at drop time):
//
//	service   time the critical worker and ranker actually ran
//	queue     runnable time spent waiting behind primary/OS threads
//	harvest   runnable time spent waiting behind harvested (batch)
//	          threads occupying eligible cores
//	evict     runnable time spent while a delayed batch eviction was
//	          still pending on the machine
//	throttle  time parked by freezes or an empty affinity mask
//	disk      time gated on an SSD cache-miss read before the worker
//	          could start
//	spread    the deliberate wake-up stagger between a query's arrival
//	          and the critical worker's planned start
//	other     the unattributed residual (zero when the critical path
//	          is fully covered)
//
// The per-cell blame table (CellForensics) reports this decomposition
// for the P50/P90/P99/P99.9 queries, selected deterministically by
// sorting records on (latency, id). It rides inside each cell's
// result, so shard and dispatch merges reassemble forensics.csv
// byte-identically with no extra plumbing.
//
// # Export
//
// WriteChrome emits the track-name metadata, then every event in
// (TS, Seq) order — simulated time, ties broken by emission order — so
// the bytes depend only on the capture. It sorts a 4-byte index
// permutation rather than the events, appends every field into one
// reused buffer with strconv, and copies strings that need no JSON
// escaping verbatim; an export allocates a fixed handful of times
// whatever the event count (a tier-1 test gates this) and leaves the
// tracer untouched. A fig4 test-scale cell captures about 35 MB of
// trace.
//
// experiments.Registry.Run streams tracers to its OnSimTrace callback:
// a cell's trace is delivered once it and every cell scheduled before
// it have completed, and the registry then drops its reference, so a
// traced run holds only the tracers of cells in flight or waiting on
// an earlier cell — one at a time with one worker — rather than every
// cell's until the pool drains.
//
// # Loading a trace in Perfetto
//
// `perfiso-repro run -simtrace ...` writes one Chrome trace-event
// JSON file per executed cell under <results>/<scale>/simtrace/, each
// written to a temp file and renamed into place only once complete.
// Open https://ui.perfetto.dev and drag the file in, or load it via
// chrome://tracing. Core tracks show execution slices; queries appear
// as async spans; controller decisions are instant markers. The same
// files validate with `perfiso-repro tracecheck <dir>`.
package simtrace
