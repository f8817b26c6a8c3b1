package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"perfiso/internal/sim"
)

func TestNilRecordingIsNoop(t *testing.T) {
	// Every method must be callable on the nil recording and do nothing.
	var rec *Recording
	rec.Add(sim.Counts{EventsPushed: 3})
	rec.Claim()
	rec.Steal()
	rec.LeaseExpired()
	rec.StaleUpload()
	rec.Upload(0.5)
}

func TestDefaultTracker(t *testing.T) {
	if Default() != nil {
		t.Fatal("default recording should start nil")
	}
	rec := NewRecording()
	SetDefault(rec)
	defer SetDefault(nil)
	if Default() != rec {
		t.Fatal("recording default not installed")
	}
	Default().Claim()
	if got := rec.Snapshot().DispatchClaims; got != 1 {
		t.Fatalf("claims = %d, want 1", got)
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) should turn counting off")
	}
}

func TestRecordingCounters(t *testing.T) {
	rec := NewRecording()
	rec.Add(sim.Counts{
		EventsPushed: 2, EventsPopped: 1, MaxHeapDepth: 7, SimTime: 1500 * sim.Millisecond,
		Tally: sim.Tally{BufferGrows: 1, BufferShrinks: 2, HoldoffDeferrals: 1, Evictions: 1},
	})
	rec.Add(sim.Counts{
		EventsPushed: 1, MaxHeapDepth: 4,
		Tally: sim.Tally{Placements: 1, Preemptions: 1, Requeues: 1},
	})
	rec.Claim()
	rec.Steal()
	rec.LeaseExpired()
	rec.StaleUpload()
	rec.Upload(0.25)
	rec.Upload(0.75)

	s := rec.Snapshot()
	if s.SimEventsPushed != 3 || s.SimEventsPopped != 1 {
		t.Fatalf("events pushed/popped = %d/%d", s.SimEventsPushed, s.SimEventsPopped)
	}
	if s.SimMaxHeapDepth != 7 {
		t.Fatalf("max heap depth = %d, want 7", s.SimMaxHeapDepth)
	}
	if s.SimSeconds != 1.5 {
		t.Fatalf("sim seconds = %v, want 1.5", s.SimSeconds)
	}
	if s.CoreBufferGrows != 1 || s.CoreBufferShrinks != 2 {
		t.Fatalf("grows/shrinks = %d/%d", s.CoreBufferGrows, s.CoreBufferShrinks)
	}
	if s.CoreHoldoffDeferrals != 1 || s.CoreEvictions != 1 {
		t.Fatalf("holdoff/evictions = %d/%d", s.CoreHoldoffDeferrals, s.CoreEvictions)
	}
	if s.HarvestPlacements != 1 || s.HarvestPreemptions != 1 || s.HarvestRequeues != 1 {
		t.Fatalf("harvest counters = %d/%d/%d", s.HarvestPlacements, s.HarvestPreemptions, s.HarvestRequeues)
	}
	if s.DispatchClaims != 1 || s.DispatchSteals != 1 || s.DispatchLeaseExpiries != 1 || s.DispatchStaleUploads != 1 {
		t.Fatalf("dispatch counters = %d/%d/%d/%d", s.DispatchClaims, s.DispatchSteals, s.DispatchLeaseExpiries, s.DispatchStaleUploads)
	}
	if s.DispatchUploads != 2 {
		t.Fatalf("uploads = %d, want 2", s.DispatchUploads)
	}
	if s.DispatchUploadMeanSeconds != 0.5 {
		t.Fatalf("upload mean = %v, want 0.5", s.DispatchUploadMeanSeconds)
	}
	if s.DispatchUploadMaxSeconds != 0.75 {
		t.Fatalf("upload max = %v, want 0.75", s.DispatchUploadMaxSeconds)
	}
}

func TestRecordingConcurrent(t *testing.T) {
	rec := NewRecording()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				rec.Add(sim.Counts{EventsPushed: 1, EventsPopped: 1, MaxHeapDepth: g*1000 + i})
				rec.Claim()
			}
		}(g)
	}
	wg.Wait()
	s := rec.Snapshot()
	if s.SimEventsPushed != 8000 || s.SimEventsPopped != 8000 || s.DispatchClaims != 8000 {
		t.Fatalf("concurrent counts = %d/%d/%d, want 8000 each", s.SimEventsPushed, s.SimEventsPopped, s.DispatchClaims)
	}
	if s.SimMaxHeapDepth != 7999 {
		t.Fatalf("max heap depth = %d, want 7999", s.SimMaxHeapDepth)
	}
}

func TestWriteProm(t *testing.T) {
	var out bytes.Buffer
	err := WriteProm(&out, []Metric{
		{Name: "perfiso_claims_total", Type: "counter", Help: "Claims.", Value: 3},
		{Name: "perfiso_worker_units", Type: "gauge", Help: "Units per worker.",
			Labels: map[string]string{"worker": "w1"}, Value: 2},
		{Name: "perfiso_worker_units", Type: "gauge", Help: "Units per worker.",
			Labels: map[string]string{"worker": "w2"}, Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# HELP perfiso_claims_total Claims.",
		"# TYPE perfiso_claims_total counter",
		"perfiso_claims_total 3",
		"perfiso_worker_units{worker=\"w1\"} 2",
		"perfiso_worker_units{worker=\"w2\"} 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	// One shared header for the two labeled series.
	if got := strings.Count(text, "# TYPE perfiso_worker_units"); got != 1 {
		t.Fatalf("duplicate TYPE headers: %d", got)
	}
}

func TestSnapshotMetricsMatch(t *testing.T) {
	rec := NewRecording()
	rec.Claim()
	rec.Claim()
	rec.Steal()
	s := rec.Snapshot()
	s.RNGDraws = 42
	found := map[string]float64{}
	for _, m := range s.Metrics() {
		found[m.Name] = m.Value
	}
	if found["perfiso_rng_draws_total"] != 42 {
		t.Fatalf("rng draws metric = %v", found["perfiso_rng_draws_total"])
	}
	if found["perfiso_sim_events_pushed_total"] != 0 {
		t.Fatalf("events pushed metric = %v", found["perfiso_sim_events_pushed_total"])
	}
}
