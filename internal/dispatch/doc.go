// Package dispatch executes a cell manifest dynamically: a coordinator
// serves claimable work units over a small HTTP+JSON protocol and
// workers pull, execute and upload them — work stealing instead of the
// static LPT plan of internal/shard. A straggler or crashed worker
// costs only its in-flight units: leases expire, the units requeue,
// and another worker picks them up.
//
// Determinism is inherited, not re-proven: a unit is one seeded
// simulation (shard.UnitRunner), its serialized result depends only on
// the unit, and the coordinator assembles results in manifest unit
// order into a shard.Partial that the coverage-checked shard.Merge
// reassembles. A dispatched run therefore produces artifacts
// byte-identical to a static-shard run and to a single-process run,
// regardless of claim order, worker count, crashes or retries.
//
// # Protocol
//
// All bodies are JSON; all responses are 200 unless noted. Workers
// poll — the coordinator never calls out.
//
//	GET  /v1/manifest
//	    → shard.Manifest. A worker rebuilds the same manifest from its
//	      own registry and refuses to work if the hashes differ
//	      (version skew between coordinator and worker binaries).
//
//	POST /v1/claim      {"worker": "name"}
//	    → {"unit": id, "experiment": e, "cell": c,
//	       "lease_ms": n, "attempt": k}   a granted lease
//	    → {"wait_ms": n}                  nothing claimable now (units
//	                                      in flight elsewhere) — retry
//	    → {"done": true}                  every unit completed — exit
//	    → {"failed": msg}                 run failed — exit non-zero
//	    The queue hands out expensive units first (manifest cost
//	    order). Before answering, the coordinator reaps expired leases:
//	    each reaped unit returns to the queue (a requeue) and a later
//	    claim by a different worker counts as a steal.
//
//	POST /v1/heartbeat  {"worker": w, "unit": id}
//	    → {"ok": true}   lease extended by one TTL
//	    → {"ok": false}  lease lost (expired and requeued, or the unit
//	                     finished elsewhere). The worker may finish and
//	                     upload anyway — first result wins — but must
//	                     not count on acceptance.
//
//	POST /v1/upload     {"worker": w, "manifest_hash": h,
//	                     "cell": shard.PartialCell}
//	    → {"ok": true}        accepted (first upload for the unit wins,
//	                          even if the uploader's lease had expired —
//	                          results are deterministic, so any
//	                          completed execution is the result)
//	    → 409 {"error": msg}  stale: another worker already completed
//	                          the unit
//	    → 400 {"error": msg}  malformed, unknown unit, or a manifest
//	                          hash the coordinator is not serving
//
//	GET  /v1/status
//	    → progress counters and the experiments.DispatchTiming snapshot
//	      (pending/leased/done counts, per-worker units, steals,
//	      requeues).
//
// # Fault tolerance
//
// Every granted lease has a TTL; workers heartbeat at TTL/3 while
// executing. A worker that crashes, hangs or just runs slow misses its
// deadline and the unit requeues — bounded by Options.MaxAttempts
// grants per unit. A unit that exhausts its attempts is poisoned and
// fails the whole run, listing every poisoned unit, so a simulation
// that reliably kills workers is reported instead of spinning forever.
// Stale uploads (the first worker finishing after its unit was
// reassigned and completed elsewhere) are rejected and counted.
//
// cmd/perfiso-repro exposes the subsystem as the serve and work
// subcommands plus the run -dispatch N in-process convenience mode;
// the dispatch section of timing.json records how the schedule played
// out per worker, and timing.json's cells list records each unit's
// accepted execution: worker, start, duration and lease grants.
//
// # Observability
//
// The coordinator renders its schedule state as Prometheus metrics
// (Coordinator.Metrics, served on /metrics by the serve subcommand);
// the values are read from the same book-keeping as Timing, so a
// scrape always matches timing.json's dispatch section. Scheduling
// events are logged through Options.Log as structured log/slog
// records with worker/unit/lease fields, and decisions are counted
// through Options.Stats (see internal/obs). The coordinator stamps
// each accepted upload with its worker, its lease grants and its start
// (upload time minus execution time, measured from the coordinator's
// start), so Partial carries the per-unit record that shard.Merge
// writes as timing.json's cells.
package dispatch
