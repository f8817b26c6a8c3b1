package experiments

import (
	"fmt"

	"perfiso/internal/isolation"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
)

// Loads are the two query rates of §5.3: approximate average (2,000
// QPS) and approximate peak (4,000 QPS).
var Loads = []float64{2000, 4000}

// singleCell builds one independent single-machine cell. Cells whose
// policy identity is fully captured by its parameters carry a shared
// key: their result depends only on (qps, bully, policy, scale), and
// the same simulation recurs across figures — the standalone baselines
// of Figs. 4–8 and the headline, Fig. 8's bars versus the Figs. 4–7
// sweeps, the ablation sweep versus Fig. 5 — so a registry run (or a
// shard plan) executes each exactly once.
func singleCell(name string, qps float64, bully BullyMode, pol isolation.Policy, scale Scale) Cell {
	c := Cell{
		Name: name,
		Cost: float64(scale.Queries),
		Run: func(eng *sim.Engine, tr *simtrace.Tracer) any {
			return runSingle(eng, tr, qps, bully, pol, scale)
		},
	}
	suffix := fmt.Sprintf("bully=%s/qps=%g/queries=%d/warmup=%d/seed=%d",
		bully, qps, scale.Queries, scale.Warmup, scale.Seed)
	switch p := pol.(type) {
	case nil:
		c.Key = "single/none/" + suffix
	case *isolation.Blind:
		c.Key = fmt.Sprintf("single/blind=%d/poll=%d/hold=%d/%s",
			p.BufferCores, p.PollInterval, p.GrowHoldoff, suffix)
	case isolation.StaticCores:
		c.Key = fmt.Sprintf("single/cores=%d/%s", p.Cores, suffix)
	case isolation.CycleCap:
		c.Key = fmt.Sprintf("single/cycles=%g/window=%d/%s", p.Fraction, p.Window, suffix)
	}
	return c
}

// baselineCells are the standalone runs Figs. 5–7 measure degradation
// against, one per load.
func baselineCells(scale Scale) []Cell {
	var cells []Cell
	for _, qps := range Loads {
		cells = append(cells, singleCell(fmt.Sprintf("standalone/qps=%.0f", qps), qps, BullyOff, nil, scale))
	}
	return cells
}

// Fig4 reproduces Figs. 4a/4b: IndexServe standalone vs colocated with
// an unrestricted mid (24-thread) and high (48-thread) secondary, at
// both loads. Keyed [bully][load].
type Fig4 struct {
	Cells map[BullyMode]map[float64]SingleResult
}

// fig4Cells lists the six no-isolation cells in table order.
func fig4Cells(scale Scale) []Cell {
	var cells []Cell
	for _, b := range []BullyMode{BullyOff, BullyMid, BullyHigh} {
		for _, qps := range Loads {
			cells = append(cells, singleCell(fmt.Sprintf("bully=%s/qps=%.0f", b, qps), qps, b, nil, scale))
		}
	}
	return cells
}

// assembleFig4 folds cell results (fig4Cells order) into the figure.
func assembleFig4(results []any) Fig4 {
	out := Fig4{Cells: map[BullyMode]map[float64]SingleResult{}}
	i := 0
	for _, b := range []BullyMode{BullyOff, BullyMid, BullyHigh} {
		out.Cells[b] = map[float64]SingleResult{}
		for _, qps := range Loads {
			out.Cells[b][qps] = results[i].(SingleResult)
			i++
		}
	}
	return out
}

// Fig5 reproduces Figs. 5a/5b: the high secondary under blind isolation
// with 4 and 8 buffer cores. Keyed [buffer][load]; Baseline carries the
// standalone runs the degradation is measured against.
type Fig5 struct {
	Buffers  []int
	Cells    map[int]map[float64]SingleResult
	Baseline map[float64]SingleResult
}

// fig5Buffers are the buffer sizes of Figs. 5a/5b.
var fig5Buffers = []int{4, 8}

// fig5Cells lists the baselines then the blind-isolation sweep.
func fig5Cells(scale Scale) []Cell {
	cells := baselineCells(scale)
	for _, buf := range fig5Buffers {
		for _, qps := range Loads {
			cells = append(cells, singleCell(fmt.Sprintf("blind=%d/qps=%.0f", buf, qps),
				qps, BullyHigh, &isolation.Blind{BufferCores: buf}, scale))
		}
	}
	return cells
}

// assembleFig5 folds cell results (fig5Cells order) into the figure.
func assembleFig5(results []any) Fig5 {
	out := Fig5{
		Buffers:  fig5Buffers,
		Cells:    map[int]map[float64]SingleResult{},
		Baseline: map[float64]SingleResult{},
	}
	i := 0
	for _, qps := range Loads {
		out.Baseline[qps] = results[i].(SingleResult)
		i++
	}
	for _, buf := range out.Buffers {
		out.Cells[buf] = map[float64]SingleResult{}
		for _, qps := range Loads {
			out.Cells[buf][qps] = results[i].(SingleResult)
			i++
		}
	}
	return out
}

// Fig6 reproduces Figs. 6a/6b: the high secondary statically restricted
// to 24, 16 and 8 cores. Keyed [cores][load].
type Fig6 struct {
	CoreCounts []int
	Cells      map[int]map[float64]SingleResult
	Baseline   map[float64]SingleResult
}

// fig6CoreCounts are the static grants of Figs. 6a/6b.
var fig6CoreCounts = []int{24, 16, 8}

// fig6Cells lists the baselines then the core-restriction sweep.
func fig6Cells(scale Scale) []Cell {
	cells := baselineCells(scale)
	for _, cores := range fig6CoreCounts {
		for _, qps := range Loads {
			cells = append(cells, singleCell(fmt.Sprintf("cores=%d/qps=%.0f", cores, qps),
				qps, BullyHigh, isolation.StaticCores{Cores: cores}, scale))
		}
	}
	return cells
}

// assembleFig6 folds cell results (fig6Cells order) into the figure.
func assembleFig6(results []any) Fig6 {
	out := Fig6{
		CoreCounts: fig6CoreCounts,
		Cells:      map[int]map[float64]SingleResult{},
		Baseline:   map[float64]SingleResult{},
	}
	i := 0
	for _, qps := range Loads {
		out.Baseline[qps] = results[i].(SingleResult)
		i++
	}
	for _, cores := range out.CoreCounts {
		out.Cells[cores] = map[float64]SingleResult{}
		for _, qps := range Loads {
			out.Cells[cores][qps] = results[i].(SingleResult)
			i++
		}
	}
	return out
}

// Fig7 reproduces Figs. 7a/7b/7c: the high secondary restricted to 45%,
// 25% and 5% of CPU cycles. Keyed [fraction][load].
type Fig7 struct {
	Fractions []float64
	Cells     map[float64]map[float64]SingleResult
	Baseline  map[float64]SingleResult
}

// fig7Fractions are the cycle caps of Figs. 7a–7c.
var fig7Fractions = []float64{0.45, 0.25, 0.05}

// fig7Cells lists the baselines then the cycle-cap sweep.
func fig7Cells(scale Scale) []Cell {
	cells := baselineCells(scale)
	for _, f := range fig7Fractions {
		for _, qps := range Loads {
			cells = append(cells, singleCell(fmt.Sprintf("cycles=%.0f%%/qps=%.0f", f*100, qps),
				qps, BullyHigh, isolation.CycleCap{Fraction: f}, scale))
		}
	}
	return cells
}

// assembleFig7 folds cell results (fig7Cells order) into the figure.
func assembleFig7(results []any) Fig7 {
	out := Fig7{
		Fractions: fig7Fractions,
		Cells:     map[float64]map[float64]SingleResult{},
		Baseline:  map[float64]SingleResult{},
	}
	i := 0
	for _, qps := range Loads {
		out.Baseline[qps] = results[i].(SingleResult)
		i++
	}
	for _, f := range out.Fractions {
		out.Cells[f] = map[float64]SingleResult{}
		for _, qps := range Loads {
			out.Cells[f][qps] = results[i].(SingleResult)
			i++
		}
	}
	return out
}

// Fig8 reproduces Figs. 8a/8b/8c: the side-by-side comparison at 2,000
// QPS with the high secondary — standalone, no isolation, blind
// isolation (8 buffer cores), static 8 cores, and a 5% cycle cap —
// reporting P99 latency, idle CPU, and the bully's absolute progress.
type Fig8 struct {
	Standalone SingleResult
	NoIso      SingleResult
	Blind      SingleResult
	Cores      SingleResult
	Cycles     SingleResult
	// Unrestricted is the colocated no-isolation run the paper
	// normalizes "progress under isolation" against (§6.1.4).
	Unrestricted SingleResult
}

// fig8Cells lists the five comparison bars at the given load.
func fig8Cells(qps float64, scale Scale) []Cell {
	return []Cell{
		singleCell("standalone", qps, BullyOff, nil, scale),
		singleCell("no-isolation", qps, BullyHigh, nil, scale),
		singleCell("blind", qps, BullyHigh, &isolation.Blind{BufferCores: 8}, scale),
		singleCell("cores", qps, BullyHigh, isolation.StaticCores{Cores: 8}, scale),
		singleCell("cycles", qps, BullyHigh, isolation.CycleCap{Fraction: 0.05}, scale),
	}
}

// assembleFig8 folds cell results (fig8Cells order) into the figure.
// The no-isolation run doubles as the progress-normalization baseline.
func assembleFig8(results []any) Fig8 {
	noiso := results[1].(SingleResult)
	return Fig8{
		Standalone:   results[0].(SingleResult),
		NoIso:        noiso,
		Blind:        results[2].(SingleResult),
		Cores:        results[3].(SingleResult),
		Cycles:       results[4].(SingleResult),
		Unrestricted: noiso,
	}
}

// All lists the Fig. 8 cells in the paper's bar order.
func (f Fig8) All() []SingleResult {
	return []SingleResult{f.Standalone, f.NoIso, f.Blind, f.Cores, f.Cycles}
}

// ProgressShares reports each isolation technique's secondary progress
// as a fraction of the unrestricted (no isolation) colocated run — the
// §6.1.4 numbers (blind 62%, cores 45%, cycles 9% at 2,000 QPS).
func (f Fig8) ProgressShares() (blind, cores, cycles float64) {
	den := f.Unrestricted.BullyProgress
	if den == 0 {
		return 0, 0, 0
	}
	return f.Blind.BullyProgress / den,
		f.Cores.BullyProgress / den,
		f.Cycles.BullyProgress / den
}

// Headline reproduces the §1/§6 headline: average CPU utilization at
// off-peak load (2,000 QPS) standalone vs colocated under blind
// isolation with 8 buffer cores.
type Headline struct {
	StandaloneUsedPct float64
	ColocatedUsedPct  float64
	SecondaryPct      float64
}

// headlineCells lists the two headline cells.
func headlineCells(scale Scale) []Cell {
	return []Cell{
		singleCell("standalone", 2000, BullyOff, nil, scale),
		singleCell("colocated", 2000, BullyHigh, &isolation.Blind{BufferCores: 8}, scale),
	}
}

// assembleHeadline folds cell results (headlineCells order) into the
// headline numbers.
func assembleHeadline(results []any) Headline {
	alone := results[0].(SingleResult)
	colo := results[1].(SingleResult)
	return Headline{
		StandaloneUsedPct: alone.Breakdown.UsedPct(),
		ColocatedUsedPct:  colo.Breakdown.UsedPct(),
		SecondaryPct:      colo.Breakdown.SecondaryPct,
	}
}
