package experiments

import (
	"regexp"
	"strings"
	"sync"
	"testing"

	"perfiso/internal/isolation"
)

// The calibration tests assert the paper's published *shape bands* at
// test scale. Each cell is expensive, so results are computed once, in
// one registry run whose figures share their standalone baselines by
// key, and shared across tests.
var (
	calOnce sync.Once
	cal4    Fig4
	cal5    Fig5
	cal8    Fig8
)

func calibrated(t *testing.T) (Fig4, Fig5, Fig8) {
	t.Helper()
	if testing.Short() {
		t.Skip("calibration runs are long; skipped with -short")
	}
	calOnce.Do(func() {
		res, err := DefaultRegistry().Run(RunOptions{
			Spec:   TestSpec(),
			Filter: regexp.MustCompile(`^(fig4|fig5|fig8)$`),
		})
		if err != nil {
			panic(err)
		}
		cal4 = res.Value("fig4").(Fig4)
		cal5 = res.Value("fig5").(Fig5)
		cal8 = res.Value("fig8").(Fig8)
	})
	return cal4, cal5, cal8
}

func TestFig4StandaloneBands(t *testing.T) {
	f4, _, _ := calibrated(t)
	for _, qps := range Loads {
		r := f4.Cells[BullyOff][qps]
		// §6.1.1: P50 ≈ 4 ms, P99 ≈ 12 ms at both loads.
		if r.Latency.P50Ms < 2.5 || r.Latency.P50Ms > 6 {
			t.Errorf("qps=%v: standalone P50 = %.2f ms, want ≈4", qps, r.Latency.P50Ms)
		}
		if r.Latency.P99Ms < 8 || r.Latency.P99Ms > 16 {
			t.Errorf("qps=%v: standalone P99 = %.2f ms, want ≈12", qps, r.Latency.P99Ms)
		}
	}
	// Idle ≈80% at 2k, ≈60% at 4k.
	if idle := f4.Cells[BullyOff][2000].Breakdown.IdlePct; idle < 65 || idle > 90 {
		t.Errorf("idle@2k = %.1f%%, want ≈80%%", idle)
	}
	if idle := f4.Cells[BullyOff][4000].Breakdown.IdlePct; idle < 45 || idle > 75 {
		t.Errorf("idle@4k = %.1f%%, want ≈60%%", idle)
	}
}

func TestFig4MidBullyBand(t *testing.T) {
	f4, _, _ := calibrated(t)
	// §6.1.2: the mid bully visibly degrades the tail at peak load but
	// stays far from the catastrophic high case and drops (almost)
	// nothing. At average load our scheduler model's exact wake
	// placement leaves the primary unharmed (24 bully threads still
	// leave free cores), so the visibility band is asserted at peak —
	// see EXPERIMENTS.md for the divergence note.
	base4k := f4.Cells[BullyOff][4000]
	mid4k := f4.Cells[BullyMid][4000]
	d99 := mid4k.Latency.P99Ms - base4k.Latency.P99Ms
	if d99 < 1 {
		t.Errorf("mid bully degradation at peak = %.2f ms, want visible (>1 ms)", d99)
	}
	for _, qps := range Loads {
		base := f4.Cells[BullyOff][qps]
		mid := f4.Cells[BullyMid][qps]
		if mid.Latency.P99Ms > 10*base.Latency.P99Ms {
			t.Errorf("qps=%v: mid bully P99 %.1f ms is catastrophic; should be moderate", qps, mid.Latency.P99Ms)
		}
		if mid.DropRate > 0.02 {
			t.Errorf("qps=%v: mid bully drop rate %.3f; the paper's mid case prevents drops", qps, mid.DropRate)
		}
	}
	// Fig. 4b: the primary compensates — its CPU share rises under mid
	// interference at peak.
	if mid4k.Breakdown.PrimaryPct <= base4k.Breakdown.PrimaryPct {
		t.Errorf("primary CPU did not rise under mid bully: %.1f%% → %.1f%%",
			base4k.Breakdown.PrimaryPct, mid4k.Breakdown.PrimaryPct)
	}
}

func TestFig4HighBullyCatastrophe(t *testing.T) {
	f4, _, _ := calibrated(t)
	for _, qps := range Loads {
		base := f4.Cells[BullyOff][qps]
		high := f4.Cells[BullyHigh][qps]
		// §6.1.2: 29× degradation, P99 saturating near the deadline,
		// 11–32% of queries dropped.
		if high.Latency.P99Ms < 10*base.Latency.P99Ms {
			t.Errorf("qps=%v: high bully P99 %.1f ms vs base %.1f ms; want >= 10x",
				qps, high.Latency.P99Ms, base.Latency.P99Ms)
		}
		if high.DropRate < 0.03 {
			t.Errorf("qps=%v: high bully drop rate %.3f, want substantial (paper: 11-32%%)", qps, high.DropRate)
		}
	}
}

func TestFig5BlindIsolationBands(t *testing.T) {
	_, f5, _ := calibrated(t)
	for _, qps := range Loads {
		base := f5.Baseline[qps]
		r8 := f5.Cells[8][qps]
		_, _, d99 := r8.DegradationMs(base)
		// §6.1.3: 8 buffer cores keep P99 within 1 ms of standalone.
		if d99 > 1.0 {
			t.Errorf("qps=%v: blind-8 P99 degradation = %.2f ms, want <= 1 ms", qps, d99)
		}
		if r8.DropRate > 0.005 {
			t.Errorf("qps=%v: blind-8 drop rate = %.4f, want ~0", qps, r8.DropRate)
		}
		// The bully must still get real work done.
		if r8.BullyProgress <= 0 {
			t.Errorf("qps=%v: blind-8 bully made no progress", qps)
		}
	}
	// 4 buffers is worse than 8 at peak (the paper shows visibly larger
	// degradation with 4).
	_, _, d99b4 := f5.Cells[4][4000].DegradationMs(f5.Baseline[4000])
	_, _, d99b8 := f5.Cells[8][4000].DegradationMs(f5.Baseline[4000])
	if d99b4 < d99b8-0.2 {
		t.Errorf("4 buffers (%.2f ms) materially better than 8 (%.2f ms); expected the opposite ordering", d99b4, d99b8)
	}
}

func TestFig8ComparisonShape(t *testing.T) {
	_, _, f8 := calibrated(t)
	base := f8.Standalone.Latency.P99Ms

	// 1) no isolation is catastrophic.
	if f8.NoIso.Latency.P99Ms < 10*base {
		t.Errorf("no-isolation P99 %.1f ms, want >= 10x standalone %.1f ms", f8.NoIso.Latency.P99Ms, base)
	}
	// 2) blind isolation and static cores both protect the tail.
	if d := f8.Blind.Latency.P99Ms - base; d > 1.0 {
		t.Errorf("blind P99 degradation %.2f ms, want <= 1", d)
	}
	if d := f8.Cores.Latency.P99Ms - base; d > 5.0 {
		t.Errorf("static-cores P99 degradation %.2f ms, want modest (<= 5)", d)
	}
	// 3) cycle capping fails to protect the tail (paper Fig. 8a shows
	// ≈3x standalone for the 5% cap).
	if f8.Cycles.Latency.P99Ms < 2.5*base {
		t.Errorf("cycle-cap P99 %.1f ms, want clearly degraded (>= 2.5x standalone)", f8.Cycles.Latency.P99Ms)
	}
	// 4) blind leaves less CPU idle than static cores (paper: −13%).
	if f8.Blind.Breakdown.IdlePct >= f8.Cores.Breakdown.IdlePct {
		t.Errorf("blind idle %.1f%% >= cores idle %.1f%%; blind should harvest more",
			f8.Blind.Breakdown.IdlePct, f8.Cores.Breakdown.IdlePct)
	}
	// 5) secondary progress ordering: blind > cores > cycles (§6.1.4:
	// 62% vs 45% vs 9%).
	blind, cores, cycles := f8.ProgressShares()
	if !(blind > cores && cores > cycles) {
		t.Errorf("progress ordering blind=%.2f cores=%.2f cycles=%.2f, want blind > cores > cycles",
			blind, cores, cycles)
	}
	if cycles > 0.25 {
		t.Errorf("cycle-cap progress share %.2f, want small (paper: 9%%)", cycles)
	}
}

func TestHeadlineUtilization(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	h := runExperiment[Headline](t, TestSpec(), "headline")
	// §1: 21% → 66% average CPU utilization at off-peak load. Bands
	// allow simulator offsets while preserving the story.
	if h.StandaloneUsedPct < 10 || h.StandaloneUsedPct > 35 {
		t.Errorf("standalone used = %.1f%%, want ≈21%%", h.StandaloneUsedPct)
	}
	if h.ColocatedUsedPct < 55 || h.ColocatedUsedPct > 90 {
		t.Errorf("colocated used = %.1f%%, want ≈66%%", h.ColocatedUsedPct)
	}
	if h.SecondaryPct < 30 {
		t.Errorf("secondary share = %.1f%%, want the batch job doing the harvesting (paper: up to 47%%)", h.SecondaryPct)
	}
}

func TestFig6StaticCoresShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	scale := TestScale()
	base := RunSingle(4000, BullyOff, nil, scale)
	r8 := RunSingle(4000, BullyHigh, isolation.StaticCores{Cores: 8}, scale)
	r24 := RunSingle(4000, BullyHigh, isolation.StaticCores{Cores: 24}, scale)
	// Fig. 6a: 8 secondary cores protect the tail at peak; 24 do not
	// (the primary needs more than the remaining 24).
	_, _, d8 := r8.DegradationMs(base)
	_, _, d24 := r24.DegradationMs(base)
	if d8 > 4 {
		t.Errorf("cores=8 P99 degradation at peak = %.2f ms, want small", d8)
	}
	if d24 <= d8 {
		t.Errorf("cores=24 (%.2f ms) not worse than cores=8 (%.2f ms) at peak", d24, d8)
	}
}

func TestFig7CycleCapShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	scale := TestScale()
	base := RunSingle(2000, BullyOff, nil, scale)
	r5 := RunSingle(2000, BullyHigh, isolation.CycleCap{Fraction: 0.05}, scale)
	r45 := RunSingle(2000, BullyHigh, isolation.CycleCap{Fraction: 0.45}, scale)
	// Fig. 7a: even a 5% cap produces clear degradation, and a larger
	// cap is *worse* — the counterintuitive result the paper highlights
	// (a bigger budget saturates the machine for longer each window).
	_, _, d5 := r5.DegradationMs(base)
	if d5 < 1 {
		t.Errorf("cycles=5%% degradation = %.2f ms, want visible", d5)
	}
	if r45.Latency.P99Ms < r5.Latency.P99Ms {
		t.Errorf("cycles=45%% P99 (%.1f) better than 5%% (%.1f); want monotone worse",
			r45.Latency.P99Ms, r5.Latency.P99Ms)
	}
	if r45.Latency.P99Ms < 10*base.Latency.P99Ms {
		t.Errorf("cycles=45%% P99 %.1f ms, want catastrophic (paper: hundreds of ms)", r45.Latency.P99Ms)
	}
}

func TestTablesRender(t *testing.T) {
	f4, f5, f8 := calibrated(t)
	for name, s := range map[string]string{
		"fig4": f4.Table(),
		"fig5": f5.Table(),
		"fig8": f8.Table(),
	} {
		if !strings.Contains(s, "p99ms") {
			t.Errorf("%s table missing header: %q", name, s[:60])
		}
		if strings.Contains(s, "NaN") {
			t.Errorf("%s table contains NaN", name)
		}
	}
	if s := (Headline{21, 66, 45}).Table(); !strings.Contains(s, "21%") {
		t.Errorf("headline table: %q", s)
	}
}
