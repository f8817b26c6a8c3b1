package experiments

import (
	"fmt"

	"perfiso/internal/cluster"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
	"perfiso/internal/stats"
)

// singleMetrics flattens one single-machine cell for the artifacts.
func singleMetrics(r SingleResult) []Metric {
	return []Metric{
		{"qps", r.QPS},
		{"p50ms", r.Latency.P50Ms},
		{"p95ms", r.Latency.P95Ms},
		{"p99ms", r.Latency.P99Ms},
		{"primary_pct", r.Breakdown.PrimaryPct},
		{"secondary_pct", r.Breakdown.SecondaryPct},
		{"idle_pct", r.Breakdown.IdlePct},
		{"drop_pct", 100 * r.DropRate},
		{"bully_progress", r.BullyProgress},
	}
}

// latencyMetrics flattens one layer's latency summary under a prefix.
func latencyMetrics(prefix string, l stats.LatencySummary) []Metric {
	return []Metric{
		{prefix + "_p50ms", l.P50Ms},
		{prefix + "_p95ms", l.P95Ms},
		{prefix + "_p99ms", l.P99Ms},
	}
}

// singleRows pairs cells with their results, in cell order.
func singleRows(cells []Cell, results []any) []Row {
	rows := make([]Row, len(cells))
	for i, c := range cells {
		rows[i] = Row{Cell: c.Name, Metrics: singleMetrics(results[i].(SingleResult))}
	}
	return rows
}

// clusterRow flattens one Fig. 9 scenario.
func clusterRow(name string, r cluster.Result) Row {
	m := latencyMetrics("server", r.Server)
	m = append(m, latencyMetrics("mla", r.MLA)...)
	m = append(m, latencyMetrics("tla", r.TLA)...)
	m = append(m,
		Metric{"cpu_used_pct", r.AvgCPUUsedPct},
		Metric{"secondary_pct", r.AvgSecondaryPct},
		Metric{"drop_pct", 100 * r.DropRate})
	return Row{Cell: name, Metrics: m}
}

// DefaultRegistry builds the registry holding every experiment of the
// reproduction: the paper's figures 4–10 and §1 headline, plus the
// repo's extensions (full stack, DES timeline, harvest frontier). A
// fresh registry is returned each call so tests may mutate theirs.
func DefaultRegistry() *Registry {
	r := NewRegistry()

	r.MustRegister(Experiment{
		Name:         "fig4",
		DecodeResult: DecodeJSONResult[SingleResult],
		Describe:     "Figs. 4a/4b — standalone vs unrestricted mid/high secondary at both loads",
		Cells:        func(s ScaleSpec) []Cell { return fig4Cells(s.Single) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := assembleFig4(results)
			return f, Report{Table: f.Table(), Rows: singleRows(cells, results),
				Series: singleSeries(cells, results), Forensics: singleForensics(cells, results)}
		},
	})

	r.MustRegister(Experiment{
		Name:         "fig5",
		DecodeResult: DecodeJSONResult[SingleResult],
		Describe:     "Figs. 5a/5b — blind isolation with 4 and 8 buffer cores under the high secondary",
		Cells:        func(s ScaleSpec) []Cell { return fig5Cells(s.Single) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := assembleFig5(results)
			return f, Report{Table: f.Table(), Rows: singleRows(cells, results),
				Series: singleSeries(cells, results), Forensics: singleForensics(cells, results)}
		},
	})

	r.MustRegister(Experiment{
		Name:         "fig6",
		DecodeResult: DecodeJSONResult[SingleResult],
		Describe:     "Figs. 6a/6b — secondary statically restricted to 24/16/8 cores",
		Cells:        func(s ScaleSpec) []Cell { return fig6Cells(s.Single) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := assembleFig6(results)
			return f, Report{Table: f.Table(), Rows: singleRows(cells, results),
				Forensics: singleForensics(cells, results)}
		},
	})

	r.MustRegister(Experiment{
		Name:         "fig7",
		DecodeResult: DecodeJSONResult[SingleResult],
		Describe:     "Figs. 7a–7c — secondary capped at 45%/25%/5% of CPU cycles",
		Cells:        func(s ScaleSpec) []Cell { return fig7Cells(s.Single) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := assembleFig7(results)
			return f, Report{Table: f.Table(), Rows: singleRows(cells, results),
				Forensics: singleForensics(cells, results)}
		},
	})

	r.MustRegister(Experiment{
		Name:         "fig8",
		DecodeResult: DecodeJSONResult[SingleResult],
		Describe:     "Figs. 8a–8c — five-way isolation comparison at the paper's 2,000 QPS",
		Cells:        func(s ScaleSpec) []Cell { return fig8Cells(s.Fig8QPS, s.Single) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := assembleFig8(results)
			return f, Report{Table: f.Table(), Rows: singleRows(cells, results),
				Forensics: singleForensics(cells, results)}
		},
	})

	r.MustRegister(Experiment{
		Name:         "headline",
		DecodeResult: DecodeJSONResult[SingleResult],
		Describe:     "§1 headline — average CPU utilization standalone vs colocated (21% → 66%)",
		Cells:        func(s ScaleSpec) []Cell { return headlineCells(s.Single) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			h := assembleHeadline(results)
			rows := []Row{{Cell: "headline", Metrics: []Metric{
				{"standalone_used_pct", h.StandaloneUsedPct},
				{"colocated_used_pct", h.ColocatedUsedPct},
				{"secondary_pct", h.SecondaryPct},
			}}}
			return h, Report{Table: h.Table(), Rows: rows,
				Forensics: singleForensics(cells, results)}
		},
	})

	r.MustRegister(Experiment{
		Name:         "fig9",
		DecodeResult: DecodeJSONResult[cluster.Result],
		Describe:     "Figs. 9a–9c — per-layer cluster latency: standalone vs CPU-/disk-bound secondaries",
		Cells:        func(s ScaleSpec) []Cell { return fig9Cells(s.Cluster) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := assembleFig9(results)
			rows := []Row{
				clusterRow("standalone", f.Standalone),
				clusterRow("cpu-bound", f.CPUBound),
				clusterRow("disk-bound", f.DiskBound),
			}
			return f, Report{Table: f.Table(), Rows: rows}
		},
	})

	r.MustRegister(Experiment{
		Name:         "fig10",
		DecodeResult: DecodeJSONResult[cluster.ProductionResult],
		Describe:     "Fig. 10 — 650-machine production hour via the calibrated fluid model",
		Cells:        func(s ScaleSpec) []Cell { return fig10Cells() },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			p := results[0].(cluster.ProductionResult)
			rows := []Row{{Cell: "production-hour", Metrics: []Metric{
				{"avg_cpu_used_pct", p.AvgCPUUsedPct},
				{"avg_p99ms", p.AvgP99ms},
				{"max_p99ms", p.MaxP99ms},
				{"samples", float64(len(p.Samples))},
			}}}
			tracks := loadSeries(len(p.Samples), func(i int) (sim.Time, float64, float64, float64, float64) {
				step := p.Samples[i]
				return step.At, step.QPS, step.P99ms, step.CPUUsedPct, step.SecondaryPct
			})
			series := []SeriesRow{{Cell: "production-hour", Tracks: tracks}}
			return p, Report{Table: Fig10Table(p, 600), Rows: rows, Series: series}
		},
	})

	r.MustRegister(Experiment{
		Name:         "fullstack",
		DecodeResult: DecodeJSONResult[FullStackResult],
		Describe:     "extension — every governor engaged against all secondaries at once",
		Cells: func(s ScaleSpec) []Cell {
			return []Cell{{
				Name: fmt.Sprintf("qps=%.0f", s.FullStackQPS),
				Cost: float64(s.Single.Queries),
				Run: func(eng *sim.Engine, _ *simtrace.Tracer) any {
					return runFullStack(eng, s.FullStackQPS, s.Single)
				},
			}}
		},
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := results[0].(FullStackResult)
			rows := []Row{{Cell: fmt.Sprintf("qps=%.0f", s.FullStackQPS), Metrics: []Metric{
				{"p50ms", f.Latency.P50Ms},
				{"p95ms", f.Latency.P95Ms},
				{"p99ms", f.Latency.P99Ms},
				{"drop_pct", 100 * f.DropRate},
				{"cpu_bully_progress", f.CPUBullyProgress},
				{"disk_bully_mbps", f.DiskBullyMBps},
				{"hdfs_client_mbps", f.HDFSClientMBps},
				{"shuffle_mbps", f.ShuffleMBps},
				{"used_pct", f.UsedPct},
				{"secondary_pct", f.SecondaryPct},
			}}}
			return f, Report{Table: f.Table(), Rows: rows}
		},
	})

	r.MustRegister(Experiment{
		Name:         "timeline",
		DecodeResult: DecodeJSONResult[TimelineResult],
		Describe:     "extension — single-machine DES under the diurnal curve (Fig. 10 cross-check)",
		Cells: func(s ScaleSpec) []Cell {
			// The timeline replays its diurnal curve for the whole span,
			// so cost ≈ queries served ≈ mean rate × duration.
			return []Cell{{
				Name: "diurnal",
				Cost: 0.725 * s.Timeline.PeakQPS * s.Timeline.Duration.Seconds(),
				Run: func(eng *sim.Engine, _ *simtrace.Tracer) any {
					return runTimeline(eng, s.Timeline)
				},
			}}
		},
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			t := results[0].(TimelineResult)
			rows := []Row{{Cell: "diurnal", Metrics: []Metric{
				{"avg_cpu_used_pct", t.AvgCPUUsedPct},
				{"avg_p99ms", t.AvgP99ms},
				{"max_p99ms", t.MaxP99ms},
				{"windows", float64(len(t.Samples))},
			}}}
			tracks := loadSeries(len(t.Samples), func(i int) (sim.Time, float64, float64, float64, float64) {
				w := t.Samples[i]
				return w.At, w.QPS, w.P99ms, w.CPUUsedPct, w.SecPct
			})
			series := []SeriesRow{{Cell: "diurnal", Tracks: tracks}}
			return t, Report{Table: t.Table(5), Rows: rows, Series: series}
		},
	})

	harvestPointMetrics := func(p HarvestPoint) []Metric {
		m := []Metric{
			{"tasks_completed", float64(p.TasksCompleted)},
			{"tasks_per_sec", p.Throughput},
			{"harvested_cpu_sec", p.HarvestedCPUSeconds},
		}
		m = append(m, latencyMetrics("server", p.Server)...)
		m = append(m, latencyMetrics("tla", p.TLA)...)
		return append(m,
			Metric{"placements", float64(p.Placements)},
			Metric{"preemptions", float64(p.Preemptions)},
			Metric{"failure_requeues", float64(p.FailureRequeues)})
	}

	r.MustRegister(Experiment{
		Name:         "harvest-frontier",
		DecodeResult: DecodeJSONResult[HarvestPoint],
		Describe:     "extension — batch-harvest throughput vs primary P99 per placement policy",
		Cells:        func(s ScaleSpec) []Cell { return harvestCells(s.Harvest) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := assembleHarvestFrontier(s.Harvest, results)
			rows := make([]Row, len(f.Points))
			var series []SeriesRow
			for i, p := range f.Points {
				rows[i] = Row{Cell: "policy=" + p.Policy, Metrics: harvestPointMetrics(p)}
				if len(p.Series) > 0 {
					series = append(series, SeriesRow{Cell: "policy=" + p.Policy, Tracks: p.Series})
				}
			}
			return f, Report{Table: f.Table(), Rows: rows, Series: series}
		},
	})

	r.MustRegister(Experiment{
		Name:         "harvest-trace-frontier",
		DecodeResult: DecodeJSONResult[HarvestPoint],
		Describe:     "extension — harvest frontier under a replayed PIBT batch trace vs the synthetic backlog",
		Cells:        harvestTraceCells,
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := assembleHarvestTraceFrontier(s, cells, results)
			rows := make([]Row, len(f.Points))
			var series []SeriesRow
			for i, p := range f.Points {
				cell := "policy=" + p.Policy + "/src=" + p.Source
				rows[i] = Row{Cell: cell, Metrics: harvestPointMetrics(p.HarvestPoint)}
				if len(p.Series) > 0 {
					series = append(series, SeriesRow{Cell: cell, Tracks: p.Series})
				}
			}
			return f, Report{Table: f.Table(), Rows: rows, Series: series}
		},
	})

	r.MustRegister(Experiment{
		Name:         "ablation-buffer",
		DecodeResult: DecodeJSONResult[SingleResult],
		Describe:     "ablation — blind-isolation buffer size swept beyond the paper's {4,8} at peak load",
		Cells:        func(s ScaleSpec) []Cell { return ablationBufferCells(s.Single) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			a := assembleAblationBuffer(results)
			return a, Report{Table: a.Table(), Rows: ablationRows(cells, results, a.Baseline),
				Forensics: singleForensics(cells, results)}
		},
	})

	r.MustRegister(Experiment{
		Name:         "ablation-poll",
		DecodeResult: DecodeJSONResult[SingleResult],
		Describe:     "ablation — governor poll cadence swept around the §4.1 100 µs loop at peak load",
		Cells:        func(s ScaleSpec) []Cell { return ablationPollCells(s.Single) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			a := assembleAblationPoll(results)
			return a, Report{Table: a.Table(), Rows: ablationRows(cells, results, a.Baseline),
				Forensics: singleForensics(cells, results)}
		},
	})

	r.MustRegister(Experiment{
		Name:         "ablation-holdoff",
		DecodeResult: DecodeJSONResult[SingleResult],
		Describe:     "ablation — blind-isolation grow holdoff swept: harvest bought vs tail risked",
		Cells:        func(s ScaleSpec) []Cell { return ablationHoldoffCells(s.Single) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			a := assembleAblationHoldoff(results)
			return a, Report{Table: a.Table(), Rows: ablationRows(cells, results, a.Baseline),
				Forensics: singleForensics(cells, results)}
		},
	})

	return r
}
