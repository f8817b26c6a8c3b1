package perfiso_test

import (
	"testing"

	"perfiso"
	"perfiso/internal/workload"
)

// TestQuickstartFlow exercises the documented public-API loop: build a
// node, start a batch job, wrap it in PerfIso, and verify the buffer
// invariant — the same flow as examples/quickstart.
func TestQuickstartFlow(t *testing.T) {
	eng := perfiso.NewEngine()
	n := perfiso.NewNode(eng, perfiso.DefaultNodeConfig())

	ctrl, err := perfiso.NewController(n.OS, perfiso.DefaultConfig())
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	bully := workload.NewCPUBully(n.CPU, "batch", 48)
	bully.Start()
	ctrl.ManageSecondary(bully.Proc)
	ctrl.Start()

	eng.Run(perfiso.Time(2 * perfiso.Second))
	if idle := n.OS.IdleCores(); idle != 8 {
		t.Fatalf("idle cores = %d, want the 8-core buffer", idle)
	}
	if bully.Progress() == 0 {
		t.Fatal("batch job made no progress")
	}

	// Kill switch.
	ctrl.Disable()
	eng.Run(perfiso.Time(3 * perfiso.Second))
	if idle := n.OS.IdleCores(); idle != 0 {
		t.Fatalf("idle = %d under kill switch, want 0", idle)
	}
}

func TestPoliciesConstructible(t *testing.T) {
	for _, p := range []perfiso.Policy{
		perfiso.PolicyNone(),
		perfiso.PolicyStaticCores(8),
		perfiso.PolicyCycleCap(0.05),
		perfiso.PolicyBlind(8),
		perfiso.PolicyBlind(0), // default buffer
	} {
		if p.Name() == "" {
			t.Errorf("policy %T has empty name", p)
		}
	}
}

func TestRunColocationFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	scale := perfiso.Scale{Queries: 6000, Warmup: 1000, Seed: 7}
	alone := perfiso.RunColocation(2000, 0, nil, scale)
	blind := perfiso.RunColocation(2000, 48, perfiso.PolicyBlind(8), scale)
	if blind.Latency.P99Ms > alone.Latency.P99Ms+1.5 {
		t.Fatalf("blind P99 %.2f ms vs standalone %.2f ms", blind.Latency.P99Ms, alone.Latency.P99Ms)
	}
	if blind.Breakdown.SecondaryPct < 20 {
		t.Fatalf("secondary share %.1f%%, want a real harvest", blind.Breakdown.SecondaryPct)
	}
}

// TestRunColocationBullyThreads pins the facade to the paper's bully
// intensities: 0, 24 and 48 threads run as labelled, and any other
// count panics instead of silently running a different bully.
func TestRunColocationBullyThreads(t *testing.T) {
	scale := perfiso.Scale{Queries: 200, Warmup: 20, Seed: 7}
	for threads, want := range map[int]string{0: "standalone", 24: "mid", 48: "high"} {
		if got := perfiso.RunColocation(2000, threads, nil, scale).Bully; got != want {
			t.Errorf("RunColocation(%d threads) ran bully %q, want %q", threads, got, want)
		}
	}
	for _, threads := range []int{10, 96} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RunColocation(%d threads) did not panic", threads)
				}
			}()
			perfiso.RunColocation(2000, threads, nil, scale)
		}()
	}
}

func TestProductionFacade(t *testing.T) {
	cfg := perfiso.DefaultProductionConfig()
	cfg.Machines = 10
	res := perfiso.RunProduction(cfg)
	if len(res.Samples) == 0 || res.AvgCPUUsedPct <= 0 {
		t.Fatalf("production result empty: %+v", res)
	}
}

func TestScalesDiffer(t *testing.T) {
	if perfiso.PaperScale().Queries <= perfiso.TestScale().Queries {
		t.Fatal("paper scale should exceed test scale")
	}
}
