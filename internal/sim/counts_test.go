package sim

import "testing"

func TestEngineCounts(t *testing.T) {
	e := NewEngine()
	e.At(Time(10*Second), func() {})
	e.At(Time(5*Second), func() {})
	e.After(20*Second, func() {})
	e.RunAll()

	c := e.Counts()
	if c.EventsPushed != 3 || c.EventsPopped != 3 {
		t.Fatalf("pushed/popped = %d/%d, want 3/3", c.EventsPushed, c.EventsPopped)
	}
	if c.MaxHeapDepth < 2 {
		t.Fatalf("max heap depth = %d, want >= 2", c.MaxHeapDepth)
	}
	if c.SimTime != 20*Second {
		t.Fatalf("sim time = %v, want 20s", c.SimTime)
	}
}

func TestEngineCountsRun(t *testing.T) {
	e := NewEngine()
	e.At(Time(2*Second), func() {})
	e.At(Time(40*Second), func() {})
	tm := e.AfterTimer(Second, func() {})
	e.Cancel(tm)
	e.Run(Time(30 * Second))
	c := e.Counts()
	if c.SimTime != 30*Second {
		t.Fatalf("sim time = %v, want 30s (Run advances to until)", c.SimTime)
	}
	// The cancelled entry is popped and discarded; the 40 s event stays
	// queued, so it is pushed but not popped.
	if c.EventsPushed != 3 || c.EventsPopped != 2 {
		t.Fatalf("pushed/popped = %d/%d, want 3/2", c.EventsPushed, c.EventsPopped)
	}
	e.Tally.BufferGrows++
	e.Tally.Placements += 2
	if got := e.Counts().Tally; got != (Tally{BufferGrows: 1, Placements: 2}) {
		t.Fatalf("tally = %+v", got)
	}
}

func TestDeterminismWithTracking(t *testing.T) {
	run := func(track bool) []uint64 {
		if track {
			SetRNGAccounting(true)
			defer SetRNGAccounting(false)
		}
		e := NewEngine()
		rng := NewRNG(42)
		var out []uint64
		e.Ticker(Second, func() bool {
			out = append(out, rng.Uint64())
			return len(out) < 50
		})
		e.RunAll()
		return out
	}
	plain := run(false)
	tracked := run(true)
	for i := range plain {
		if plain[i] != tracked[i] {
			t.Fatalf("draw %d differs with tracking: %d vs %d", i, plain[i], tracked[i])
		}
	}
}

func TestRNGAccounting(t *testing.T) {
	ResetRNGDraws()
	rng := NewRNG(1)
	rng.Uint64()
	if RNGDraws() != 0 {
		t.Fatal("draws counted while accounting off")
	}
	SetRNGAccounting(true)
	defer SetRNGAccounting(false)
	rng.Uint64()
	rng.Float64()
	if got := RNGDraws(); got != 2 {
		t.Fatalf("draws = %d, want 2", got)
	}
	ResetRNGDraws()
	if RNGDraws() != 0 {
		t.Fatal("reset did not zero the counter")
	}
}
