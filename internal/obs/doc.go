// Package obs is the harness-side instrumentation layer: run-wide
// counters, per-cell wall-clock spans, and Prometheus-text rendering.
//
// # Counters
//
// Recording holds lock-free atomic counters, safe for every pool
// worker and dispatch worker in a process to share. Every method is a
// no-op on a nil receiver, and a nil *Recording is how counting is
// switched off, so call sites never branch.
//
// Cell code never touches a Recording. Each executed cell runs on a
// fresh sim.Engine, which keeps that cell's counts in plain fields:
// events pushed and popped, max heap depth and virtual time, plus the
// decision tallies core and harvest bump through the engine they hold
// (blind-isolation grows, shrinks and holdoff deferrals, memory-guard
// evictions, harvest placements, preemptions and failure requeues).
// When the cell returns, experiments.RunCell folds the engine's counts
// into Default() with one Add call. The in-process pool, the shard
// runner and dispatch workers all run cells through RunCell, so each
// executed cell is counted once, whichever path ran it.
//
// The dispatch coordinator and workers count their own decisions
// through Claim, Steal, LeaseExpired, StaleUpload and Upload. They
// use dispatch.Options.Stats or Worker.Stats, or Default() when those
// are nil.
//
// SetDefault installs the process-wide recording before a run (the
// `-stats` flag does this) and SetDefault(nil) turns counting off
// again. Snapshot projects the counters into a JSON-serializable
// struct, folded into timing.json by `perfiso-repro run -stats`, and
// Metrics renders it for the /metrics endpoints of `perfiso-repro
// serve` and `work`. Counting never feeds back into a simulation, so
// results are byte-identical with it on or off.
//
// # Trace spans
//
// Span is one cell execution: which experiment/cell (and, for
// dispatched runs, which unit and worker) ran when and for how long.
// The experiment pool, the static shard runner and the dispatch
// coordinator append spans to a TraceBuffer when tracing is enabled
// (`-trace`), and the merge step reassembles the buffers of a sharded
// run into one run-wide trace.jsonl. Like timing.json, traces are
// observational: they never feed back into results and carry no
// byte-identity guarantee.
package obs
