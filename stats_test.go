package perfiso_test

// The harness fold: every executed cell's engine counts reach the
// process-wide obs.Recording exactly once, whether the in-process pool
// (at any worker count) or dispatch workers ran it.

import (
	"regexp"
	"testing"

	"perfiso/internal/dispatch"
	"perfiso/internal/experiments"
	"perfiso/internal/obs"
)

// foldFilter selects the synthetic harvest frontier and the trace
// frontier, whose synthetic cells share the first one's keys: a small
// selection with both keyed-shared cells and harvest placements.
const foldFilter = "^harvest-(trace-)?frontier$"

// foldSpec shrinks the harvest scale to keep the test fast; placements
// and blind-isolation decisions still happen.
func foldSpec() experiments.ScaleSpec {
	spec := experiments.TestSpec()
	spec.Harvest.Queries = 1500
	spec.Harvest.Warmup = 300
	spec.BatchTrace.Tasks = 12
	return spec
}

// simFields is the part of a snapshot the harness fold produces.
func simFields(s obs.Snapshot) obs.Snapshot {
	return obs.Snapshot{
		SimEventsPushed:      s.SimEventsPushed,
		SimEventsPopped:      s.SimEventsPopped,
		SimMaxHeapDepth:      s.SimMaxHeapDepth,
		SimSeconds:           s.SimSeconds,
		CoreBufferGrows:      s.CoreBufferGrows,
		CoreBufferShrinks:    s.CoreBufferShrinks,
		CoreHoldoffDeferrals: s.CoreHoldoffDeferrals,
		CoreEvictions:        s.CoreEvictions,
		HarvestPlacements:    s.HarvestPlacements,
		HarvestPreemptions:   s.HarvestPreemptions,
		HarvestRequeues:      s.HarvestRequeues,
	}
}

// counted runs fn with a fresh process-wide recording installed and
// returns the sim/core/harvest part of what it counted.
func counted(t *testing.T, fn func()) obs.Snapshot {
	t.Helper()
	rec := obs.NewRecording()
	obs.SetDefault(rec)
	defer obs.SetDefault(nil)
	fn()
	return simFields(rec.Snapshot())
}

func TestStatsFoldOncePerExecutedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	reg := experiments.DefaultRegistry()
	spec := foldSpec()
	filter := regexp.MustCompile(foldFilter)

	// Expected: each distinct cell run alone, exactly once.
	want := counted(t, func() {
		seen := map[string]bool{}
		for _, e := range reg.Select(filter) {
			for _, c := range e.Cells(spec) {
				if c.Key != "" {
					if seen[c.Key] {
						continue
					}
					seen[c.Key] = true
				}
				experiments.RunCell(c, nil)
			}
		}
	})
	if want.HarvestPlacements == 0 || want.CoreBufferGrows == 0 || want.SimEventsPopped == 0 {
		t.Fatalf("selection counts nothing to compare: %+v", want)
	}

	for _, workers := range []int{1, 2} {
		var res experiments.RunResult
		got := counted(t, func() {
			var err error
			res, err = reg.Run(experiments.RunOptions{Spec: spec, Workers: workers, Filter: filter})
			if err != nil {
				t.Fatal(err)
			}
		})
		if res.SharedCells == 0 {
			t.Fatal("selection has no keyed-shared cell")
		}
		if got != want {
			t.Fatalf("pool workers=%d counted\n%+v\nwant (each executed cell once)\n%+v", workers, got, want)
		}
	}

	got := counted(t, func() {
		if _, _, err := dispatch.RunLocal(reg, spec, foldFilter, 2, dispatch.Options{}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if got != want {
		t.Fatalf("dispatch.RunLocal counted\n%+v\nwant (each executed cell once)\n%+v", got, want)
	}
}
