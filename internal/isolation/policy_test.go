package isolation

import (
	"testing"

	"perfiso/internal/cpumodel"
	"perfiso/internal/osmodel"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// fixture builds a 48-core OS with a CPU bully inside a secondary job.
func fixture(t *testing.T, bullyThreads int) (*sim.Engine, *osmodel.OS, *osmodel.Job, *workload.CPUBully) {
	t.Helper()
	eng := sim.NewEngine()
	m := cpumodel.New(eng, sim.NewRNG(7), cpumodel.DefaultConfig())
	os := osmodel.New(eng, m, nil, nil, nil)
	job := os.CreateJob("secondary")
	bully := workload.NewCPUBully(m, "bully", bullyThreads)
	bully.Start()
	job.Assign(bully.Proc)
	return eng, os, job, bully
}

func TestNonePolicyLeavesJobUnrestricted(t *testing.T) {
	eng, os, job, _ := fixture(t, 48)
	p := None{}
	if err := p.Install(os, job); err != nil {
		t.Fatalf("install: %v", err)
	}
	eng.Run(sim.Time(10 * sim.Millisecond))
	if got, want := job.Affinity().Count(), 48; got != want {
		t.Fatalf("affinity count = %d, want %d", got, want)
	}
	if idle := os.IdleCores(); idle != 0 {
		t.Fatalf("48-thread bully under none left %d cores idle", idle)
	}
	if p.Name() != "none" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestStaticCoresRestrictsAndReleases(t *testing.T) {
	eng, os, job, _ := fixture(t, 48)
	p := StaticCores{Cores: 8}
	if err := p.Install(os, job); err != nil {
		t.Fatalf("install: %v", err)
	}
	eng.Run(sim.Time(10 * sim.Millisecond))
	if got := job.Affinity().Count(); got != 8 {
		t.Fatalf("affinity count = %d, want 8", got)
	}
	// The bully only occupies its 8 cores; 40 stay idle.
	if idle := os.IdleCores(); idle != 40 {
		t.Fatalf("idle cores = %d, want 40", idle)
	}
	p.Uninstall(os, job)
	eng.Run(sim.Time(20 * sim.Millisecond))
	if idle := os.IdleCores(); idle != 0 {
		t.Fatalf("after uninstall idle cores = %d, want 0", idle)
	}
}

func TestStaticCoresRejectsBadCounts(t *testing.T) {
	_, os, job, _ := fixture(t, 4)
	for _, n := range []int{0, -1, 49} {
		if err := (StaticCores{Cores: n}).Install(os, job); err == nil {
			t.Errorf("StaticCores{%d}.Install succeeded, want error", n)
		}
	}
}

func TestStaticCoresPacksHighCores(t *testing.T) {
	_, os, job, _ := fixture(t, 4)
	if err := (StaticCores{Cores: 8}).Install(os, job); err != nil {
		t.Fatalf("install: %v", err)
	}
	aff := job.Affinity()
	for c := 0; c < 40; c++ {
		if aff.Has(c) {
			t.Fatalf("low core %d granted to secondary; want top-packed mask %v", c, aff)
		}
	}
	for c := 40; c < 48; c++ {
		if !aff.Has(c) {
			t.Fatalf("top core %d missing from secondary mask %v", c, aff)
		}
	}
}

func TestCycleCapFreezesBully(t *testing.T) {
	eng, os, job, bully := fixture(t, 48)
	p := CycleCap{Fraction: 0.05}
	if err := p.Install(os, job); err != nil {
		t.Fatalf("install: %v", err)
	}
	eng.Run(sim.Time(2 * sim.Second))
	os.CPU.AccrueAll()
	share := os.CPU.Breakdown().SecondaryPct / 100
	if share > 0.10 {
		t.Fatalf("secondary share = %.3f, want <= 0.10 under a 5%% cap", share)
	}
	if share < 0.01 {
		t.Fatalf("secondary share = %.3f; cap starved the bully entirely", share)
	}
	if bully.Progress() == 0 {
		t.Fatal("bully made no progress at all under 5% cap")
	}
}

func TestCycleCapRejectsBadFractions(t *testing.T) {
	_, os, job, _ := fixture(t, 4)
	for _, f := range []float64{0, -0.5, 1.5} {
		if err := (CycleCap{Fraction: f}).Install(os, job); err == nil {
			t.Errorf("CycleCap{%v}.Install succeeded, want error", f)
		}
	}
}

func TestCycleCapUninstallUnfreezes(t *testing.T) {
	eng, os, job, _ := fixture(t, 48)
	p := CycleCap{Fraction: 0.05}
	if err := p.Install(os, job); err != nil {
		t.Fatalf("install: %v", err)
	}
	eng.Run(sim.Time(1 * sim.Second))
	p.Uninstall(os, job)
	eng.Run(sim.Time(2 * sim.Second))
	if idle := os.IdleCores(); idle != 0 {
		t.Fatalf("idle cores = %d after uninstall, want 0 (bully unrestricted)", idle)
	}
}

func TestBlindInstallKeepsBufferIdle(t *testing.T) {
	eng, os, job, _ := fixture(t, 48)
	p := &Blind{BufferCores: 8}
	if err := p.Install(os, job); err != nil {
		t.Fatalf("install: %v", err)
	}
	eng.Run(sim.Time(2 * sim.Second))
	// With only a bully and OS-free machine, the governor should settle
	// at S = 40, leaving exactly the buffer idle.
	if got := p.Governor().Allocated(); got != 40 {
		t.Fatalf("allocated = %d, want 40", got)
	}
	if idle := os.IdleCores(); idle != 8 {
		t.Fatalf("idle cores = %d, want 8 (the buffer)", idle)
	}
}

func TestBlindRespondsToPrimaryLoad(t *testing.T) {
	eng, os, job, _ := fixture(t, 48)
	m := os.CPU
	primary := m.NewProcess("primary", stats.ClassPrimary)
	p := &Blind{BufferCores: 8}
	if err := p.Install(os, job); err != nil {
		t.Fatalf("install: %v", err)
	}
	eng.Run(sim.Time(1 * sim.Second))
	before := p.Governor().Allocated()

	// A 20-thread primary burst must shrink the secondary grant.
	eng.At(eng.Now(), func() {
		for i := 0; i < 20; i++ {
			m.Spawn(primary, 500*sim.Millisecond, cpumodel.AllCores(48), nil)
		}
	})
	eng.Run(sim.Time(1*sim.Second + 200*sim.Millisecond))
	after := p.Governor().Allocated()
	if after >= before {
		t.Fatalf("allocation did not shrink under primary load: before=%d after=%d", before, after)
	}
	if eng.Counts().Tally.BufferShrinks == 0 {
		t.Fatal("no shrink operations recorded")
	}
}

func TestBlindRejectsOversizedBuffer(t *testing.T) {
	_, os, job, _ := fixture(t, 4)
	p := &Blind{BufferCores: 48}
	if err := p.Install(os, job); err == nil {
		t.Fatal("install with buffer == cores succeeded, want error")
	}
}

func TestBlindUninstallReleasesJob(t *testing.T) {
	eng, os, job, _ := fixture(t, 48)
	p := &Blind{BufferCores: 8}
	if err := p.Install(os, job); err != nil {
		t.Fatalf("install: %v", err)
	}
	eng.Run(sim.Time(1 * sim.Second))
	p.Uninstall(os, job)
	eng.Run(sim.Time(2 * sim.Second))
	if idle := os.IdleCores(); idle != 0 {
		t.Fatalf("idle cores = %d after uninstall, want 0", idle)
	}
	if p.Governor() != nil {
		t.Fatal("governor not cleared by uninstall")
	}
}

func TestPolicyNames(t *testing.T) {
	cases := []struct {
		p    Policy
		want string
	}{
		{None{}, "none"},
		{StaticCores{Cores: 16}, "cores-16"},
		{CycleCap{Fraction: 0.45}, "cycles-45%"},
		{&Blind{BufferCores: 4}, "blind-4"},
		{&Blind{}, "blind-8"}, // default buffer
	}
	for _, c := range cases {
		if got := c.p.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}
