package dispatch

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"perfiso/internal/experiments"
	"perfiso/internal/obs"
	"perfiso/internal/shard"
)

// metricValue resolves a rendered metric by name (and optional worker
// label) from a Metrics() snapshot.
func metricValue(t *testing.T, ms []obs.Metric, name, worker string) float64 {
	t.Helper()
	for _, m := range ms {
		if m.Name != name {
			continue
		}
		if worker != "" && m.Labels["worker"] != worker {
			continue
		}
		return m.Value
	}
	t.Fatalf("metric %s{worker=%q} not rendered", name, worker)
	return 0
}

// TestDispatchObservability is the observability acceptance property:
// a dispatched multi-worker run records every executed unit exactly
// once in the partial's cells, fully attributed, and the /metrics
// values match the run's timing.json dispatch section because both
// read the same books.
func TestDispatchObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	spec := experiments.TestSpec()
	reg := experiments.DefaultRegistry()
	runner, err := shard.NewUnitRunner(reg, spec, dispatchFilter)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecording()
	c, err := NewCoordinator(runner.Manifest, Options{Stats: rec})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		w := &Worker{
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("w-%d", i),
			Runner:      runner,
			Client:      srv.Client(),
			Stats:       rec,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(context.Background()); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}()
	}
	wg.Wait()
	select {
	case <-c.Done():
	default:
		t.Fatal("workers exited with the run incomplete")
	}

	units := runner.Units()
	dt := c.Timing()

	// Every executed unit appears in the partial exactly once, fully
	// labeled and attributed to the worker whose upload was accepted.
	p, err := c.Partial()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) != len(units) {
		t.Fatalf("partial has %d cells, manifest has %d units", len(p.Cells), len(units))
	}
	seen := map[string]bool{}
	for _, pc := range p.Cells {
		if _, ok := runner.Unit(pc.Unit); !ok {
			t.Errorf("cell names unknown unit %q", pc.Unit)
		}
		if seen[pc.Unit] {
			t.Errorf("unit %s recorded twice", pc.Unit)
		}
		seen[pc.Unit] = true
		if pc.Worker == "" || pc.Experiment == "" || pc.Cell == "" || pc.Attempts < 1 {
			t.Errorf("cell missing attribution: %+v", pc)
		}
		if pc.Seconds < 0 {
			t.Errorf("cell duration negative: %+v", pc)
		}
	}

	// /metrics and timing.json are views of the same book-keeping.
	ms := c.Metrics()
	claims := 0
	for _, w := range dt.Workers {
		claims += w.Claims
	}
	for _, want := range []struct {
		name  string
		value float64
	}{
		{"perfiso_dispatch_units", float64(dt.Units)},
		{"perfiso_dispatch_units_done", float64(dt.Units)},
		{"perfiso_dispatch_units_pending", 0},
		{"perfiso_dispatch_units_leased", 0},
		{"perfiso_dispatch_claims_total", float64(claims)},
		{"perfiso_dispatch_steals_total", float64(dt.Steals)},
		{"perfiso_dispatch_lease_expiries_total", float64(dt.Requeues)},
		{"perfiso_dispatch_stale_uploads_total", float64(dt.StaleUploads)},
	} {
		if got := metricValue(t, ms, want.name, ""); got != want.value {
			t.Errorf("%s = %v, timing says %v", want.name, got, want.value)
		}
	}
	for _, w := range dt.Workers {
		if got := metricValue(t, ms, "perfiso_dispatch_worker_units", w.Worker); got != float64(w.Units) {
			t.Errorf("worker_units{%s} = %v, timing says %d", w.Worker, got, w.Units)
		}
	}

	// The shared recording agrees: one accepted upload (and so
	// one latency sample) per unit, one Claim per granted lease.
	s := rec.Snapshot()
	if s.DispatchUploads != uint64(len(units)) {
		t.Errorf("recording counted %d uploads, want %d", s.DispatchUploads, len(units))
	}
	if s.DispatchClaims != uint64(claims) {
		t.Errorf("recording counted %d claims, timing says %d", s.DispatchClaims, claims)
	}
	if s.DispatchUploadMaxSeconds < s.DispatchUploadMeanSeconds {
		t.Errorf("upload max %v < mean %v", s.DispatchUploadMaxSeconds, s.DispatchUploadMeanSeconds)
	}
}
