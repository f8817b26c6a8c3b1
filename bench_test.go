package perfiso_test

// One benchmark per table/figure of the paper's evaluation, plus
// ablations over PerfIso's design choices (buffer size, poll cadence,
// grow holdoff, scheduler quantum). Each bench regenerates its figure
// at test scale and reports the headline metric of that figure via
// b.ReportMetric, so `go test -bench=.` prints the same rows the paper
// does:
//
//	BenchmarkFig4NoIsolation      — P99 under the unrestricted bully
//	BenchmarkFig5BlindIsolation   — P99 degradation with 4/8 buffers
//	BenchmarkFig6StaticCores      — P99 degradation per core count
//	BenchmarkFig7CycleCap         — P99 degradation and drops per cap
//	BenchmarkFig8Comparison       — all five bars side by side
//	BenchmarkFig9Cluster          — per-layer P99 on the DES cluster
//	BenchmarkFig10Production      — 650-machine fluid hour
//	BenchmarkHeadlineUtilization  — 21% → 66% utilization headline
//	BenchmarkSecondaryProgress    — §6.1.4 progress shares
//	BenchmarkAblation*            — buffer/poll/holdoff/quantum sweeps
//
// Wall-clock per iteration is the cost of simulating the full trace,
// so these are throughput benchmarks of the simulator as much as
// metric reports of the reproduction.

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"testing"

	"perfiso"
	"perfiso/internal/cluster"
	"perfiso/internal/cpumodel"
	"perfiso/internal/dispatch"
	"perfiso/internal/experiments"
	"perfiso/internal/isolation"
	"perfiso/internal/node"
	"perfiso/internal/report"
	"perfiso/internal/shard"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
	"perfiso/internal/workload"
)

// benchScale keeps each iteration around a second while preserving a
// stable P99.
func benchScale() experiments.Scale {
	return experiments.Scale{Queries: 12000, Warmup: 2000, Seed: 2017}
}

func BenchmarkFig4NoIsolation(b *testing.B) {
	for _, mode := range []experiments.BullyMode{experiments.BullyOff, experiments.BullyMid, experiments.BullyHigh} {
		for _, qps := range experiments.Loads {
			b.Run(fmt.Sprintf("%s/qps=%.0f", mode, qps), func(b *testing.B) {
				var r experiments.SingleResult
				for i := 0; i < b.N; i++ {
					r = experiments.RunSingle(qps, mode, nil, benchScale())
				}
				b.ReportMetric(r.Latency.P99Ms, "p99ms")
				b.ReportMetric(100*r.DropRate, "drop%")
				b.ReportMetric(r.Breakdown.IdlePct, "idle%")
			})
		}
	}
}

func BenchmarkFig5BlindIsolation(b *testing.B) {
	for _, buf := range []int{4, 8} {
		for _, qps := range experiments.Loads {
			b.Run(fmt.Sprintf("buffer=%d/qps=%.0f", buf, qps), func(b *testing.B) {
				var r, base experiments.SingleResult
				for i := 0; i < b.N; i++ {
					base = experiments.RunSingle(qps, experiments.BullyOff, nil, benchScale())
					r = experiments.RunSingle(qps, experiments.BullyHigh, perfiso.PolicyBlind(buf), benchScale())
				}
				_, _, d99 := r.DegradationMs(base)
				b.ReportMetric(d99, "d99ms")
				b.ReportMetric(r.Breakdown.SecondaryPct, "sec%")
			})
		}
	}
}

func BenchmarkFig6StaticCores(b *testing.B) {
	for _, cores := range []int{24, 16, 8} {
		for _, qps := range experiments.Loads {
			b.Run(fmt.Sprintf("cores=%d/qps=%.0f", cores, qps), func(b *testing.B) {
				var r, base experiments.SingleResult
				for i := 0; i < b.N; i++ {
					base = experiments.RunSingle(qps, experiments.BullyOff, nil, benchScale())
					r = experiments.RunSingle(qps, experiments.BullyHigh, perfiso.PolicyStaticCores(cores), benchScale())
				}
				_, _, d99 := r.DegradationMs(base)
				b.ReportMetric(d99, "d99ms")
				b.ReportMetric(r.Breakdown.SecondaryPct, "sec%")
			})
		}
	}
}

func BenchmarkFig7CycleCap(b *testing.B) {
	for _, frac := range []float64{0.45, 0.25, 0.05} {
		for _, qps := range experiments.Loads {
			b.Run(fmt.Sprintf("cap=%.0f%%/qps=%.0f", frac*100, qps), func(b *testing.B) {
				var r experiments.SingleResult
				for i := 0; i < b.N; i++ {
					r = experiments.RunSingle(qps, experiments.BullyHigh, perfiso.PolicyCycleCap(frac), benchScale())
				}
				b.ReportMetric(r.Latency.P99Ms, "p99ms")
				b.ReportMetric(100*r.DropRate, "drop%")
				b.ReportMetric(r.Breakdown.SecondaryPct, "sec%")
			})
		}
	}
}

// benchExperiment runs one registered experiment at spec through the
// registry on a GOMAXPROCS-wide pool (Workers 0) and returns its typed
// value.
func benchExperiment[T any](b *testing.B, spec experiments.ScaleSpec, name string) T {
	b.Helper()
	res, err := experiments.DefaultRegistry().Run(experiments.RunOptions{
		Spec:   spec,
		Filter: regexp.MustCompile("^" + regexp.QuoteMeta(name) + "$"),
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Value(name).(T)
}

func BenchmarkFig8Comparison(b *testing.B) {
	var f experiments.Fig8
	for i := 0; i < b.N; i++ {
		f = benchExperiment[experiments.Fig8](b, reproSpec(), "fig8")
	}
	b.ReportMetric(f.Standalone.Latency.P99Ms, "standalone-p99ms")
	b.ReportMetric(f.NoIso.Latency.P99Ms, "noiso-p99ms")
	b.ReportMetric(f.Blind.Latency.P99Ms, "blind-p99ms")
	b.ReportMetric(f.Cores.Latency.P99Ms, "cores-p99ms")
	b.ReportMetric(f.Cycles.Latency.P99Ms, "cycles-p99ms")
	blind, cores, cycles := f.ProgressShares()
	b.ReportMetric(100*blind, "blind-progress%")
	b.ReportMetric(100*cores, "cores-progress%")
	b.ReportMetric(100*cycles, "cycles-progress%")
}

func BenchmarkFig9Cluster(b *testing.B) {
	var f experiments.Fig9
	for i := 0; i < b.N; i++ {
		f = benchExperiment[experiments.Fig9](b, reproSpec(), "fig9")
	}
	b.ReportMetric(f.Standalone.TLA.P99Ms, "standalone-tla-p99ms")
	b.ReportMetric(f.CPUBound.TLA.P99Ms, "cpu-tla-p99ms")
	b.ReportMetric(f.DiskBound.TLA.P99Ms, "disk-tla-p99ms")
	b.ReportMetric(f.CPUBound.AvgCPUUsedPct, "cpu-used%")
}

func BenchmarkHarvestFrontier(b *testing.B) {
	var f experiments.HarvestFrontier
	for i := 0; i < b.N; i++ {
		f = benchExperiment[experiments.HarvestFrontier](b, reproSpec(), "harvest-frontier")
	}
	for _, p := range f.Points {
		b.ReportMetric(float64(p.TasksCompleted), p.Policy+"-tasks")
		b.ReportMetric(p.Server.P99Ms, p.Policy+"-srv-p99ms")
	}
}

func BenchmarkFig10Production(b *testing.B) {
	var r cluster.ProductionResult
	for i := 0; i < b.N; i++ {
		r = benchExperiment[cluster.ProductionResult](b, reproSpec(), "fig10")
	}
	b.ReportMetric(r.AvgCPUUsedPct, "avg-cpu%")
	b.ReportMetric(r.AvgP99ms, "avg-p99ms")
	b.ReportMetric(r.MaxP99ms, "max-p99ms")
}

func BenchmarkHeadlineUtilization(b *testing.B) {
	var h experiments.Headline
	for i := 0; i < b.N; i++ {
		h = benchExperiment[experiments.Headline](b, reproSpec(), "headline")
	}
	b.ReportMetric(h.StandaloneUsedPct, "standalone%")
	b.ReportMetric(h.ColocatedUsedPct, "colocated%")
	b.ReportMetric(h.SecondaryPct, "secondary%")
}

func BenchmarkSecondaryProgress(b *testing.B) {
	for _, qps := range experiments.Loads {
		b.Run(fmt.Sprintf("qps=%.0f", qps), func(b *testing.B) {
			spec := reproSpec()
			spec.Fig8QPS = qps
			var f experiments.Fig8
			for i := 0; i < b.N; i++ {
				f = benchExperiment[experiments.Fig8](b, spec, "fig8")
			}
			blind, cores, cycles := f.ProgressShares()
			b.ReportMetric(100*blind, "blind%")
			b.ReportMetric(100*cores, "cores%")
			b.ReportMetric(100*cycles, "cycles%")
		})
	}
}

// reproSpec sizes the registry benchmark like the other benches: small
// single-machine traces, the reduced cluster topology.
func reproSpec() experiments.ScaleSpec {
	spec := experiments.TestSpec()
	spec.Name = "bench"
	spec.Single = benchScale()
	return spec
}

// BenchmarkReproAll runs every registered experiment through the shared
// cell pool. workers=1 is the sequential baseline; workers=8 is the
// parallel run — the ns/op ratio between the two sub-benchmarks is the
// registry's wall-clock speedup on the recording machine (bounded by
// its core count; ~1× on a single-core box).
func BenchmarkReproAll(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res experiments.RunResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.DefaultRegistry().Run(experiments.RunOptions{
					Spec:    reproSpec(),
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.CellCount), "cells")
			b.ReportMetric(float64(runtime.NumCPU()), "cores")
		})
	}
}

// BenchmarkStatsOverhead prices the observability layer on the sim
// hot path: the same single-node simulation as every run executes it
// (the engine keeps its plain per-cell counts unconditionally), with
// RNG draw accounting on, and with a live sim-domain tracer capturing
// every span. The noop row is the cost every run pays — the sim-trace
// hooks hide behind one nil check — so it must stay within noise (≤2%)
// of the pre-instrumentation baseline; scripts/bench.sh enforces that
// budget against the committed BENCH_cluster.json under BENCH_STRICT=1.
func BenchmarkStatsOverhead(b *testing.B) {
	qps := experiments.Loads[len(experiments.Loads)-1]
	runPlain := func() experiments.SingleResult {
		return experiments.RunSingle(qps, experiments.BullyHigh, perfiso.PolicyBlind(8), benchScale())
	}
	for _, mode := range []struct {
		name  string
		setup func() (teardown func())
		run   func() experiments.SingleResult
	}{
		{"noop", func() func() { return func() {} }, runPlain},
		{"rng", func() func() {
			sim.SetRNGAccounting(true)
			return func() { sim.SetRNGAccounting(false) }
		}, runPlain},
		{"simtrace", func() func() { return func() {} }, func() experiments.SingleResult {
			return experiments.RunSingleTraced(qps, experiments.BullyHigh, perfiso.PolicyBlind(8), benchScale(), simtrace.New())
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			teardown := mode.setup()
			defer teardown()
			b.ResetTimer()
			var r experiments.SingleResult
			for i := 0; i < b.N; i++ {
				r = mode.run()
			}
			b.ReportMetric(r.Latency.P99Ms, "p99ms")
		})
	}
}

// BenchmarkDispatchOverhead prices the work-stealing dispatcher
// against the static plan at equal worker counts: static is one shard
// (the whole manifest) on an in-process pool, dispatch is the same
// units claimed by N workers over loopback HTTP with leases and
// heartbeats. The ns/op gap is the protocol's overhead — it should be
// noise next to simulation time.
func BenchmarkDispatchOverhead(b *testing.B) {
	const workers = 4
	b.Run(fmt.Sprintf("static/workers=%d", workers), func(b *testing.B) {
		var p shard.Partial
		for i := 0; i < b.N; i++ {
			var err error
			p, err = shard.RunShard(experiments.DefaultRegistry(), shard.RunShardOptions{
				Spec:    reproSpec(),
				Shard:   0,
				Shards:  1,
				Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(p.Cells)), "units")
	})
	b.Run(fmt.Sprintf("dispatch/workers=%d", workers), func(b *testing.B) {
		var p shard.Partial
		for i := 0; i < b.N; i++ {
			var err error
			p, _, err = dispatch.RunLocal(experiments.DefaultRegistry(), reproSpec(), "", workers, dispatch.Options{}, nil)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(p.Cells)), "units")
	})
}

// BenchmarkAblationBufferCores sweeps B beyond the paper's {4,8}: how
// much buffer the tail actually needs versus how much harvest it
// costs. The registered `ablation-buffer` experiment is this sweep's
// pooled, sharded, RESULTS.md-visible port; the benchmark remains for
// ad-hoc -benchtime exploration.
func BenchmarkAblationBufferCores(b *testing.B) {
	for _, buf := range []int{0, 2, 4, 8, 12, 16} {
		b.Run(fmt.Sprintf("buffer=%d", buf), func(b *testing.B) {
			var r, base experiments.SingleResult
			for i := 0; i < b.N; i++ {
				base = experiments.RunSingle(4000, experiments.BullyOff, nil, benchScale())
				pol := perfiso.PolicyBlind(buf)
				if buf == 0 {
					// PolicyBlind(0) selects the default; build the zero-
					// buffer case explicitly through a 1-core buffer proxy
					// is wrong, so run the none policy with a full bully
					// as the B=0 limit.
					r = experiments.RunSingle(4000, experiments.BullyHigh, nil, benchScale())
				} else {
					r = experiments.RunSingle(4000, experiments.BullyHigh, pol, benchScale())
				}
			}
			_, _, d99 := r.DegradationMs(base)
			b.ReportMetric(d99, "d99ms")
			b.ReportMetric(r.Breakdown.SecondaryPct, "sec%")
		})
	}
}

// BenchmarkAblationPollInterval sweeps the controller's poll cadence:
// the rescue latency is bounded by it, so the tail should degrade as
// polling slows (§4.1 argues for the tight loop).
func BenchmarkAblationPollInterval(b *testing.B) {
	for _, poll := range []sim.Duration{50 * sim.Microsecond, 100 * sim.Microsecond,
		1 * sim.Millisecond, 10 * sim.Millisecond} {
		b.Run(fmt.Sprintf("poll=%v", poll), func(b *testing.B) {
			var r, base experiments.SingleResult
			for i := 0; i < b.N; i++ {
				base = experiments.RunSingle(4000, experiments.BullyOff, nil, benchScale())
				pol := &isolation.Blind{BufferCores: 8, PollInterval: poll}
				r = experiments.RunSingle(4000, experiments.BullyHigh, pol, benchScale())
			}
			_, _, d99 := r.DegradationMs(base)
			b.ReportMetric(d99, "d99ms")
		})
	}
}

// BenchmarkAblationGrowHoldoff sweeps the grow rate limit: faster
// growth harvests more but re-shrinks more often.
func BenchmarkAblationGrowHoldoff(b *testing.B) {
	for _, hold := range []sim.Duration{500 * sim.Microsecond, 1 * sim.Millisecond,
		5 * sim.Millisecond, 20 * sim.Millisecond} {
		b.Run(fmt.Sprintf("holdoff=%v", hold), func(b *testing.B) {
			var r experiments.SingleResult
			for i := 0; i < b.N; i++ {
				pol := &isolation.Blind{BufferCores: 8, GrowHoldoff: hold}
				r = experiments.RunSingle(2000, experiments.BullyHigh, pol, benchScale())
			}
			b.ReportMetric(r.Breakdown.SecondaryPct, "sec%")
			b.ReportMetric(r.Latency.P99Ms, "p99ms")
		})
	}
}

// BenchmarkAblationQuantum sweeps the scheduler quantum: the
// no-isolation catastrophe is a direct function of how long a bully
// thread holds a core.
func BenchmarkAblationQuantum(b *testing.B) {
	for _, q := range []sim.Duration{60 * sim.Millisecond, 150 * sim.Millisecond, 300 * sim.Millisecond} {
		b.Run(fmt.Sprintf("quantum=%v", q), func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				cfg := node.DefaultConfig()
				cfg.CPU.Quantum = q
				n := node.New(eng, cfg)
				bully := workload.NewCPUBully(n.CPU, "bully", 48)
				bully.Start()
				trace := workload.GenerateTrace(workload.TraceConfig{Queries: 8000, Rate: 2000, Seed: 3})
				n.ReplayTrace(trace, 1000)
				last := trace[len(trace)-1].Arrival
				eng.Run(last.Add(sim.Duration(cfg.IndexServe.Deadline) + sim.Second))
				p99 = n.Server.Latency.Summary().P99Ms
			}
			b.ReportMetric(p99, "noiso-p99ms")
		})
	}
}

// BenchmarkTraceIO measures trace-file serialization throughput — at
// the paper's 500k-query scale (and the PIBT batch traces riding the
// same encoder style) the per-record cost dominates trace tooling.
func BenchmarkTraceIO(b *testing.B) {
	const queries = 200000
	trace := workload.GenerateTrace(workload.TraceConfig{Queries: queries, Rate: 2000, Seed: 2017})
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, trace); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()

	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(encoded)))
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := workload.WriteTrace(&buf, trace); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(queries), "records")
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(encoded)))
		for i := 0; i < b.N; i++ {
			back, err := workload.ReadTrace(bytes.NewReader(encoded))
			if err != nil {
				b.Fatal(err)
			}
			if len(back) != queries {
				b.Fatalf("read %d records, want %d", len(back), queries)
			}
		}
		b.ReportMetric(float64(queries), "records")
	})
}

// BenchmarkRenderFigures measures the cost of the whole figure
// pipeline downstream of the simulator: load the committed test-scale
// CSVs and render every SVG. This is the marginal cost `-artifacts`
// adds to a run and what the report subcommand pays end to end.
func BenchmarkRenderFigures(b *testing.B) {
	ds, err := report.LoadDir("results/test")
	if err != nil {
		b.Fatal(err)
	}
	var figs []report.Figure
	var total int
	for i := 0; i < b.N; i++ {
		figs = report.Figures(ds)
		total = 0
		for _, f := range figs {
			total += len(f.SVG)
		}
	}
	if len(figs) == 0 {
		b.Fatal("no figures rendered")
	}
	b.ReportMetric(float64(len(figs)), "figures")
	b.ReportMetric(float64(total), "svg_bytes")
}

// BenchmarkEngineThroughput measures raw simulator event throughput —
// the denominator of every experiment's wall-clock cost.
func BenchmarkEngineThroughput(b *testing.B) {
	eng := sim.NewEngine()
	var fire func()
	count := 0
	fire = func() {
		count++
		eng.After(1*sim.Microsecond, fire)
	}
	fire()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkSchedulerWakeup measures thread wake-to-dispatch cost on an
// idle machine — the hot path of every query burst.
func BenchmarkSchedulerWakeup(b *testing.B) {
	eng := sim.NewEngine()
	m := cpumodel.New(eng, sim.NewRNG(1), cpumodel.DefaultConfig())
	p := m.NewProcess("p", 1)
	all := cpumodel.AllCores(48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Spawn(p, 1*sim.Microsecond, all, nil)
		eng.RunAll()
	}
}

// BenchmarkAblationEvictionLatency sweeps the dispatcher-propagation
// delay of affinity evictions, with 4 vs 8 buffer cores. Measured
// result: the tail holds even at 8 ms eviction latency, because queued
// burst workers are rescued by the primary's own completing helpers
// (wake boost + machine-wide idle stealing) long before the eviction
// lands — evidence that in this model the buffer's job is absorbing
// the *wake* burst, not surviving the eviction delay.
func BenchmarkAblationEvictionLatency(b *testing.B) {
	for _, evict := range []sim.Duration{0, 500 * sim.Microsecond, 2 * sim.Millisecond, 8 * sim.Millisecond} {
		for _, buf := range []int{4, 8} {
			b.Run(fmt.Sprintf("evict=%v/buffer=%d", evict, buf), func(b *testing.B) {
				var d99 float64
				for i := 0; i < b.N; i++ {
					base := runEvictCell(4000, 0, 0, evict)
					r := runEvictCell(4000, 48, buf, evict)
					d99 = r - base
				}
				b.ReportMetric(d99, "d99ms")
			})
		}
	}
}

// runEvictCell runs one colocation cell with the given eviction latency
// and returns the P99 in milliseconds.
func runEvictCell(qps float64, bullyThreads, buffer int, evict sim.Duration) float64 {
	eng := sim.NewEngine()
	cfg := node.DefaultConfig()
	cfg.CPU.EvictionLatency = evict
	n := node.New(eng, cfg)
	job := n.OS.CreateJob("secondary")
	if bullyThreads > 0 {
		bully := workload.NewCPUBully(n.CPU, "bully", bullyThreads)
		bully.Start()
		job.Assign(bully.Proc)
	}
	if buffer > 0 {
		pol := &isolation.Blind{BufferCores: buffer}
		if err := pol.Install(n.OS, job); err != nil {
			panic(err)
		}
	}
	trace := workload.GenerateTrace(workload.TraceConfig{Queries: 8000, Rate: qps, Seed: 3})
	n.ReplayTrace(trace, 1500)
	last := trace[len(trace)-1].Arrival
	eng.Run(last.Add(sim.Duration(cfg.IndexServe.Deadline) + sim.Second))
	return n.Server.Latency.Summary().P99Ms
}

// BenchmarkAblationBurstiness explores the §7 (2DFQ) hypothesis: a less
// bursty primary needs fewer buffer cores. The sweep reduces the
// per-query worker fan-out across small buffers. Measured result: in
// this model even one buffer core suffices at any burstiness (the
// wake-boost/idle-steal rescue is strong), while zero collapses — so
// the hypothesis is confirmed only in the degenerate sense that the
// minimal safe buffer is already minimal.
func BenchmarkAblationBurstiness(b *testing.B) {
	for _, maxWorkers := range []int{15, 8, 4} {
		for _, buf := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("workers<=%d/buffer=%d", maxWorkers, buf), func(b *testing.B) {
				var d99 float64
				for i := 0; i < b.N; i++ {
					base := runBurstCell(maxWorkers, 0, 0)
					r := runBurstCell(maxWorkers, 48, buf)
					d99 = r - base
				}
				b.ReportMetric(d99, "d99ms")
			})
		}
	}
}

// runBurstCell runs a colocation cell with a capped worker fan-out and
// returns the P99 in milliseconds.
func runBurstCell(maxWorkers, bullyThreads, buffer int) float64 {
	eng := sim.NewEngine()
	cfg := node.DefaultConfig()
	is := *cfg.IndexServe
	if is.WorkersMin > maxWorkers {
		is.WorkersMin = maxWorkers
	}
	is.WorkersMax = maxWorkers
	cfg.IndexServe = &is
	n := node.New(eng, cfg)
	job := n.OS.CreateJob("secondary")
	if bullyThreads > 0 {
		bully := workload.NewCPUBully(n.CPU, "bully", bullyThreads)
		bully.Start()
		job.Assign(bully.Proc)
	}
	if buffer > 0 {
		pol := &isolation.Blind{BufferCores: buffer}
		if err := pol.Install(n.OS, job); err != nil {
			panic(err)
		}
	}
	trace := workload.GenerateTrace(workload.TraceConfig{Queries: 8000, Rate: 4000, Seed: 9})
	n.ReplayTrace(trace, 1500)
	last := trace[len(trace)-1].Arrival
	eng.Run(last.Add(sim.Duration(cfg.IndexServe.Deadline) + sim.Second))
	return n.Server.Latency.Summary().P99Ms
}
