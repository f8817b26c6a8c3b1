package experiments

import (
	"fmt"
	"strings"

	"perfiso/internal/isolation"
	"perfiso/internal/sim"
)

// The ablation experiments port the BenchmarkAblation* sweeps to the
// registry: registered cells run on the shared pool, shard and
// dispatch like everything else, and land in RESULTS.md.
// ablation-buffer sweeps the blind-isolation buffer B beyond the
// paper's {4, 8}; ablation-poll sweeps the governor's poll cadence;
// ablation-holdoff sweeps the grow rate limit. Quantum and eviction
// latency remain benchmark-only.

// ablationBuffers is the swept buffer size; 0 is the no-isolation
// limit (an absent controller, not a zero-buffer controller).
var ablationBuffers = []int{0, 2, 4, 8, 12, 16}

// ablationQPS is the peak load of §5.3 — the regime where the buffer
// actually defends the tail.
const ablationQPS = 4000

// AblationBuffer is the assembled sweep, keyed by buffer size.
// Baseline is the standalone run degradation is measured against.
type AblationBuffer struct {
	Buffers  []int
	Cells    map[int]SingleResult
	Baseline SingleResult
}

// ablationBufferCells lists the standalone baseline then the sweep.
// Every cell is keyed, so the baseline and the paper's {4, 8} points
// are shared with Figs. 4–8 instead of re-simulated.
func ablationBufferCells(scale Scale) []Cell {
	cells := []Cell{
		singleCell(fmt.Sprintf("standalone/qps=%d", ablationQPS), ablationQPS, BullyOff, nil, scale),
	}
	for _, buf := range ablationBuffers {
		var pol isolation.Policy
		if buf > 0 {
			pol = &isolation.Blind{BufferCores: buf}
		}
		cells = append(cells, singleCell(fmt.Sprintf("buffer=%d/qps=%d", buf, ablationQPS),
			ablationQPS, BullyHigh, pol, scale))
	}
	return cells
}

// assembleAblationBuffer folds cell results (ablationBufferCells
// order) into the sweep.
func assembleAblationBuffer(results []any) AblationBuffer {
	out := AblationBuffer{
		Buffers:  ablationBuffers,
		Cells:    map[int]SingleResult{},
		Baseline: results[0].(SingleResult),
	}
	for i, buf := range out.Buffers {
		out.Cells[buf] = results[i+1].(SingleResult)
	}
	return out
}

// ablationRows flattens a sweep for the artifacts, adding the tail
// degradation against the standalone baseline each point trades
// against its harvest.
func ablationRows(cells []Cell, results []any, baseline SingleResult) []Row {
	rows := singleRows(cells, results)
	for i := range rows {
		r := results[i].(SingleResult)
		_, _, d99 := r.DegradationMs(baseline)
		rows[i].Metrics = append(rows[i].Metrics, Metric{"d99ms", d99})
	}
	return rows
}

// Table renders the sweep.
func (a AblationBuffer) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Blind-isolation buffer ablation — high bully at %d QPS (buffer=0 is no isolation)\n", ablationQPS)
	fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s %8s\n", "buffer", "p99ms", "d99ms", "drop%", "sec%", "idle%")
	b.WriteString(strings.Repeat("-", 54) + "\n")
	fmt.Fprintf(&b, "%-8s %8.2f %8s %8.2f %8.1f %8.1f\n", "alone",
		a.Baseline.Latency.P99Ms, "—", 100*a.Baseline.DropRate,
		a.Baseline.Breakdown.SecondaryPct, a.Baseline.Breakdown.IdlePct)
	for _, buf := range a.Buffers {
		r := a.Cells[buf]
		_, _, d99 := r.DegradationMs(a.Baseline)
		fmt.Fprintf(&b, "%-8d %8.2f %8.2f %8.2f %8.1f %8.1f\n", buf,
			r.Latency.P99Ms, d99, 100*r.DropRate,
			r.Breakdown.SecondaryPct, r.Breakdown.IdlePct)
	}
	return b.String()
}

// durLabel renders a sweep duration compactly and stably for cell
// names and table rows ("0.05ms", "1ms", "20ms").
func durLabel(d sim.Duration) string {
	return fmt.Sprintf("%gms", d.Milliseconds())
}

// ablationPolls sweeps the controller's poll cadence around the tight
// 100 µs loop §4.1 argues for: rescue latency is bounded by it, so the
// tail should degrade as polling slows.
var ablationPolls = []sim.Duration{
	50 * sim.Microsecond, 100 * sim.Microsecond, 1 * sim.Millisecond, 10 * sim.Millisecond,
}

// AblationPoll is the assembled poll-interval sweep, keyed by
// interval. Baseline is the standalone run degradation is measured
// against.
type AblationPoll struct {
	Polls    []sim.Duration
	Cells    map[sim.Duration]SingleResult
	Baseline SingleResult
}

// ablationPollCells lists the standalone baseline (shared by key with
// every other 4,000 QPS standalone cell) then the sweep, B=8 under the
// high bully at peak load.
func ablationPollCells(scale Scale) []Cell {
	cells := []Cell{
		singleCell(fmt.Sprintf("standalone/qps=%d", ablationQPS), ablationQPS, BullyOff, nil, scale),
	}
	for _, poll := range ablationPolls {
		cells = append(cells, singleCell(fmt.Sprintf("poll=%s/qps=%d", durLabel(poll), ablationQPS),
			ablationQPS, BullyHigh, &isolation.Blind{BufferCores: 8, PollInterval: poll}, scale))
	}
	return cells
}

// assembleAblationPoll folds cell results (ablationPollCells order)
// into the sweep.
func assembleAblationPoll(results []any) AblationPoll {
	out := AblationPoll{
		Polls:    ablationPolls,
		Cells:    map[sim.Duration]SingleResult{},
		Baseline: results[0].(SingleResult),
	}
	for i, poll := range out.Polls {
		out.Cells[poll] = results[i+1].(SingleResult)
	}
	return out
}

// Table renders the sweep.
func (a AblationPoll) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Governor poll-interval ablation — B=8 blind isolation, high bully at %d QPS\n", ablationQPS)
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s %8s\n", "poll", "p99ms", "d99ms", "drop%", "sec%", "idle%")
	b.WriteString(strings.Repeat("-", 56) + "\n")
	fmt.Fprintf(&b, "%-10s %8.2f %8s %8.2f %8.1f %8.1f\n", "alone",
		a.Baseline.Latency.P99Ms, "—", 100*a.Baseline.DropRate,
		a.Baseline.Breakdown.SecondaryPct, a.Baseline.Breakdown.IdlePct)
	for _, poll := range a.Polls {
		r := a.Cells[poll]
		_, _, d99 := r.DegradationMs(a.Baseline)
		fmt.Fprintf(&b, "%-10s %8.2f %8.2f %8.2f %8.1f %8.1f\n", durLabel(poll),
			r.Latency.P99Ms, d99, 100*r.DropRate,
			r.Breakdown.SecondaryPct, r.Breakdown.IdlePct)
	}
	return b.String()
}

// ablationHoldoffs sweeps the grow rate limit: faster growth harvests
// more but re-shrinks more often.
var ablationHoldoffs = []sim.Duration{
	500 * sim.Microsecond, 1 * sim.Millisecond, 5 * sim.Millisecond, 20 * sim.Millisecond,
}

// ablationHoldoffQPS is the average load of §5.3 — the regime where
// there is headroom for the secondary to grow back into.
const ablationHoldoffQPS = 2000

// AblationHoldoff is the assembled grow-holdoff sweep, keyed by
// holdoff. Baseline is the standalone run degradation is measured
// against.
type AblationHoldoff struct {
	Holdoffs []sim.Duration
	Cells    map[sim.Duration]SingleResult
	Baseline SingleResult
}

// ablationHoldoffCells lists the standalone baseline (shared by key
// with the Figs. 4–8 baselines at the same load) then the sweep.
func ablationHoldoffCells(scale Scale) []Cell {
	cells := []Cell{
		singleCell(fmt.Sprintf("standalone/qps=%d", ablationHoldoffQPS), ablationHoldoffQPS, BullyOff, nil, scale),
	}
	for _, hold := range ablationHoldoffs {
		cells = append(cells, singleCell(fmt.Sprintf("holdoff=%s/qps=%d", durLabel(hold), ablationHoldoffQPS),
			ablationHoldoffQPS, BullyHigh, &isolation.Blind{BufferCores: 8, GrowHoldoff: hold}, scale))
	}
	return cells
}

// assembleAblationHoldoff folds cell results (ablationHoldoffCells
// order) into the sweep.
func assembleAblationHoldoff(results []any) AblationHoldoff {
	out := AblationHoldoff{
		Holdoffs: ablationHoldoffs,
		Cells:    map[sim.Duration]SingleResult{},
		Baseline: results[0].(SingleResult),
	}
	for i, hold := range out.Holdoffs {
		out.Cells[hold] = results[i+1].(SingleResult)
	}
	return out
}

// Table renders the sweep; sec% is the harvest each holdoff buys.
func (a AblationHoldoff) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Grow-holdoff ablation — B=8 blind isolation, high bully at %d QPS\n", ablationHoldoffQPS)
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s %8s\n", "holdoff", "p99ms", "d99ms", "drop%", "sec%", "idle%")
	b.WriteString(strings.Repeat("-", 56) + "\n")
	fmt.Fprintf(&b, "%-10s %8.2f %8s %8.2f %8.1f %8.1f\n", "alone",
		a.Baseline.Latency.P99Ms, "—", 100*a.Baseline.DropRate,
		a.Baseline.Breakdown.SecondaryPct, a.Baseline.Breakdown.IdlePct)
	for _, hold := range a.Holdoffs {
		r := a.Cells[hold]
		_, _, d99 := r.DegradationMs(a.Baseline)
		fmt.Fprintf(&b, "%-10s %8.2f %8.2f %8.2f %8.1f %8.1f\n", durLabel(hold),
			r.Latency.P99Ms, d99, 100*r.DropRate,
			r.Breakdown.SecondaryPct, r.Breakdown.IdlePct)
	}
	return b.String()
}
