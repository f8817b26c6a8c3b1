package experiments

import (
	"errors"
	"strings"
	"testing"

	"perfiso/internal/cluster"
	"perfiso/internal/osmodel"
)

// smokeSpec keeps the single-machine smoke tests fast; shape
// assertions live in calibration_test.go at the larger TestScale.
func smokeSpec() ScaleSpec {
	spec := TestSpec()
	spec.Single = Scale{Queries: 3000, Warmup: 500, Seed: 5}
	return spec
}

func TestRunFig6Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	f := runExperiment[Fig6](t, smokeSpec(), "fig6")
	if len(f.CoreCounts) != 3 {
		t.Fatalf("core counts = %v", f.CoreCounts)
	}
	for _, cores := range f.CoreCounts {
		for _, qps := range Loads {
			r, ok := f.Cells[cores][qps]
			if !ok {
				t.Fatalf("missing cell cores=%d qps=%v", cores, qps)
			}
			if r.Latency.Count == 0 {
				t.Fatalf("empty latency for cores=%d qps=%v", cores, qps)
			}
			// The static grant is fully used by the 48-thread bully.
			wantSec := 100 * float64(cores) / 48
			if r.Breakdown.SecondaryPct < wantSec-5 || r.Breakdown.SecondaryPct > wantSec+5 {
				t.Errorf("cores=%d: secondary = %.1f%%, want ≈%.1f%%", cores, r.Breakdown.SecondaryPct, wantSec)
			}
		}
	}
	if !strings.Contains(f.Table(), "cores=24") {
		t.Fatal("table missing rows")
	}
}

func TestRunFig7Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	f := runExperiment[Fig7](t, smokeSpec(), "fig7")
	for _, frac := range f.Fractions {
		for _, qps := range Loads {
			r := f.Cells[frac][qps]
			if r.Latency.Count == 0 {
				t.Fatalf("empty cell frac=%v qps=%v", frac, qps)
			}
			// The cap binds the secondary's share. The tolerance covers
			// window-phase aliasing: at this tiny scale the measurement
			// window spans only a couple of 600 ms enforcement windows,
			// and the budget is burned at each window's start.
			if r.Breakdown.SecondaryPct > 100*frac+8 {
				t.Errorf("frac=%v: secondary %.1f%% exceeds its cap", frac, r.Breakdown.SecondaryPct)
			}
		}
	}
	if !strings.Contains(f.Table(), "cycles=45%") {
		t.Fatal("table missing rows")
	}
}

func TestRunFig9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	spec := TestSpec()
	spec.Cluster.Queries, spec.Cluster.Warmup = 1200, 200
	f := runExperiment[Fig9](t, spec, "fig9")
	for name, r := range map[string]cluster.Result{
		"standalone": f.Standalone, "cpu": f.CPUBound, "disk": f.DiskBound,
	} {
		if r.TLA.Count == 0 || r.MLA.Count == 0 || r.Server.Count == 0 {
			t.Fatalf("%s: empty layer summaries: %+v", name, r)
		}
		if r.TLA.P99Ms < r.Server.P99Ms {
			t.Errorf("%s: TLA P99 %.2f < server P99 %.2f", name, r.TLA.P99Ms, r.Server.P99Ms)
		}
	}
	if f.CPUBound.AvgSecondaryPct < 10 {
		t.Errorf("cpu-bound secondary share = %.1f%%, want a real harvest", f.CPUBound.AvgSecondaryPct)
	}
	if f.Standalone.Secondary != "standalone" || f.CPUBound.Secondary != "cpu-bound" {
		t.Errorf("scenario labels: %q / %q", f.Standalone.Secondary, f.CPUBound.Secondary)
	}
	tbl := f.Table()
	for _, want := range []string{"standalone", "cpu-bound", "disk-bound"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("fig9 table missing %q", want)
		}
	}
}

func TestRunFig10Smoke(t *testing.T) {
	r := runExperiment[cluster.ProductionResult](t, TestSpec(), "fig10")
	if len(r.Samples) != 3600 {
		t.Fatalf("samples = %d, want 3600 (1h at 1s steps)", len(r.Samples))
	}
	if r.AvgCPUUsedPct < 60 || r.AvgCPUUsedPct > 80 {
		t.Fatalf("avg CPU = %.1f%%, want ≈70%%", r.AvgCPUUsedPct)
	}
	tbl := Fig10Table(r, 600)
	if !strings.Contains(tbl, "p99ms") || !strings.Contains(tbl, "avg CPU") {
		t.Fatalf("fig10 table malformed:\n%s", tbl)
	}
	// every<=0 falls back to printing all rows without crashing.
	if len(Fig10Table(r, 0)) < len(tbl) {
		t.Fatal("every=0 table shorter than sampled table")
	}
}

func TestBullyModeHelpers(t *testing.T) {
	if BullyOff.Threads() != 0 || BullyMid.Threads() != 24 || BullyHigh.Threads() != 48 {
		t.Fatal("thread mapping wrong")
	}
	if BullyOff.String() != "standalone" || BullyMid.String() != "mid" || BullyHigh.String() != "high" {
		t.Fatal("names wrong")
	}
}

func TestRunSinglePanicsOnBadPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for impossible policy")
		}
	}()
	RunSingle(2000, BullyHigh, badPolicy{}, Scale{Queries: 100, Warmup: 10, Seed: 1})
}

type badPolicy struct{}

func (badPolicy) Name() string { return "bad" }
func (badPolicy) Install(*osmodel.OS, *osmodel.Job) error {
	return errors.New("deliberately impossible")
}
func (badPolicy) Uninstall(*osmodel.OS, *osmodel.Job) {}
