package main

import (
	"perfiso/internal/obs"
)

// metricDef names a reported metric and its unit; BENCHMARK.json lists
// the same names and units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, each the median over
// its iterations.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// selfLayers are the packages whose share of CPU-profile self samples
// is reported as <layer>.self_pct.
var selfLayers = []string{
	"sim", "cpumodel", "indexserve", "core", "cluster", "harvest",
	"diskmodel", "netmodel", "workload", "stats", "simtrace",
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.events_pushed", "count"},
	{"sim.heap_depth_max", "count"},
	{"sim.sim_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"sim.self_pct", "%"},
	{"sim.heap_sink_pct", "%"},
	{"cpumodel.self_pct", "%"},
	{"cpumodel.oldest_eligible_pct", "%"},
	{"indexserve.self_pct", "%"},
	{"indexserve.queries", "count"},
	{"core.self_pct", "%"},
	{"core.buffer_grows", "count"},
	{"core.buffer_shrinks", "count"},
	{"core.holdoff_deferrals", "count"},
	{"cluster.self_pct", "%"},
	{"harvest.self_pct", "%"},
	{"harvest.placements", "count"},
	{"harvest.preemptions", "count"},
	{"diskmodel.self_pct", "%"},
	{"netmodel.self_pct", "%"},
	{"workload.self_pct", "%"},
	{"stats.self_pct", "%"},
	{"simtrace.self_pct", "%"},
	{"simtrace.chrome_mb", "MiB"},
	{"simtrace.export_s", "s"},
	{"simtrace.heap_at_delivery_mb", "MiB"},
	{"experiments.cells", "count"},
	{"experiments.cell_p50_s", "s"},
	{"experiments.cell_max_s", "s"},
	{"experiments.shared_cells", "count"},
	{"experiments.pool_busy_pct", "%"},
	{"experiments.assemble_s", "s"},
	{"dispatch.claims", "count"},
	{"dispatch.upload_ms_mean", "ms"},
	{"dispatch.overhead_s", "s"},
	{"shard.merge_s", "s"},
	{"report.artifacts_s", "s"},
	{"report.figures_s", "s"},
	{"report.paper_rows_matched", "count"},
	{"runtime.mallocs", "count"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.malloc_pct", "%"},
	{"runtime.gc_pct", "%"},
	{"trace_overhead_pct", "%"},
}

// exact is the part of a traced iteration's counters that must repeat
// exactly for one commit and seed: sim work, controller and harvest
// decisions, and dispatch claims.
type exact struct {
	events, pushed                    uint64
	depth                             int64
	simSeconds                        float64
	grows, shrinks, holdoffs, evicts  uint64
	placements, preemptions, requeues uint64
	claims                            uint64
}

func exactOf(s obs.Snapshot) exact {
	return exact{
		events:      s.SimEventsPopped,
		pushed:      s.SimEventsPushed,
		depth:       s.SimMaxHeapDepth,
		simSeconds:  s.SimSeconds,
		grows:       s.CoreBufferGrows,
		shrinks:     s.CoreBufferShrinks,
		holdoffs:    s.CoreHoldoffDeferrals,
		evicts:      s.CoreEvictions,
		placements:  s.HarvestPlacements,
		preemptions: s.HarvestPreemptions,
		requeues:    s.HarvestRequeues,
		claims:      s.DispatchClaims,
	}
}

func endToEndValues(plain []iteration) map[string]float64 {
	return map[string]float64{
		"wall_s":      medianOf(plain, func(it iteration) float64 { return it.wall }),
		"cpu_s":       medianOf(plain, func(it iteration) float64 { return it.cpu }),
		"peak_rss_mb": medianOf(plain, func(it iteration) float64 { return it.rssMB }),
		"setup_s":     medianOf(plain, func(it iteration) float64 { return it.setup }),
	}
}

// layerValues computes the per-layer metrics. Counts come from the
// first traced iteration (the others repeat them exactly), timings are
// medians over the traced iterations, and CPU shares come from the
// profiles of all of them together.
func layerValues(b *bench, plain, traced []iteration) map[string]float64 {
	const mib = 1 << 20
	first := traced[0]
	c := first.counts
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	tmed := func(f func(iteration) float64) float64 { return medianOf(traced, f) }
	workers := float64(b.wl.workers)
	wall := tmed(func(it iteration) float64 { return it.wall })
	plainWall := medianOf(plain, func(it iteration) float64 { return it.wall })

	v := map[string]float64{
		"sim.events":         float64(c.SimEventsPopped),
		"sim.events_pushed":  float64(c.SimEventsPushed),
		"sim.heap_depth_max": float64(c.SimMaxHeapDepth),
		"sim.sim_s":          c.SimSeconds,
		"sim.ns_per_event": tmed(func(it iteration) float64 {
			if it.counts.SimEventsPopped == 0 {
				return 0
			}
			return sum(it.cellSecs) * 1e9 / float64(it.counts.SimEventsPopped)
		}),
		"indexserve.queries":     float64(first.queries),
		"core.buffer_grows":      float64(c.CoreBufferGrows),
		"core.buffer_shrinks":    float64(c.CoreBufferShrinks),
		"core.holdoff_deferrals": float64(c.CoreHoldoffDeferrals),
		"harvest.placements":     float64(c.HarvestPlacements),
		"harvest.preemptions":    float64(c.HarvestPreemptions),

		"simtrace.chrome_mb":           float64(first.chromeBytes) / mib,
		"simtrace.export_s":            tmed(func(it iteration) float64 { return it.exportSec }),
		"simtrace.heap_at_delivery_mb": tmed(func(it iteration) float64 { return it.heapAtDeliveryMB }),

		"experiments.cells":        float64(first.cells),
		"experiments.shared_cells": float64(first.shared),
		"experiments.cell_p50_s":   tmed(func(it iteration) float64 { return median(it.cellSecs) }),
		"experiments.cell_max_s": tmed(func(it iteration) float64 {
			m := 0.0
			for _, s := range it.cellSecs {
				m = max(m, s)
			}
			return m
		}),
		"experiments.pool_busy_pct": tmed(func(it iteration) float64 {
			return 100 * sum(it.cellSecs) / (it.runSec * workers)
		}),
		"experiments.assemble_s": tmed(func(it iteration) float64 { return it.assembleSec }),

		"dispatch.claims": float64(c.DispatchClaims),
		"dispatch.upload_ms_mean": tmed(func(it iteration) float64 {
			return it.counts.DispatchUploadMeanSeconds * 1e3
		}),
		"dispatch.overhead_s": tmed(func(it iteration) float64 {
			if b.wl.mode != dispatchMode {
				return 0
			}
			return it.runSec - sum(it.cellSecs)/workers
		}),
		"shard.merge_s": tmed(func(it iteration) float64 { return it.mergeSec }),

		"report.artifacts_s":        tmed(func(it iteration) float64 { return it.artifactsSec }),
		"report.figures_s":          tmed(func(it iteration) float64 { return it.figuresSec }),
		"report.paper_rows_matched": float64(first.rowsMatched),

		"runtime.mallocs":   float64(first.mallocs),
		"runtime.alloc_mb":  float64(first.allocBytes) / mib,
		"runtime.gc_cycles": float64(first.gcCycles),

		"trace_overhead_pct": 100 * (wall - plainWall) / plainWall,
	}
	for _, layer := range selfLayers {
		v[layer+".self_pct"] = b.prof.pct(b.prof.self[layer])
	}
	for _, h := range hotFunctions {
		v[h.metric] = b.prof.pct(b.prof.hot[h.metric])
	}
	return v
}
