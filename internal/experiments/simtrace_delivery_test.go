package experiments

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
)

// deliveryRegistry builds two experiments whose cells emit a known
// number of trace events: in cost order a/big (3 events), a/quiet
// (none), a/shared (2, keyed and shared with b/shared-too) and
// b/small (1). When gate is non-nil, a/big blocks on it until the
// test releases it, so later cells complete first.
func deliveryRegistry(gate chan struct{}) *Registry {
	cell := func(name, key string, cost float64, events int) Cell {
		return Cell{Name: name, Key: key, Cost: cost, Run: func(_ *sim.Engine, tr *simtrace.Tracer) any {
			if name == "big" && gate != nil {
				<-gate
			}
			for i := 0; i < events; i++ {
				tr.Instant(sim.Time(i), simtrace.TrackControl, name, "test")
			}
			return events
		}}
	}
	exp := func(name string, cells ...Cell) Experiment {
		return Experiment{
			Name:     name,
			Cells:    func(ScaleSpec) []Cell { return cells },
			Assemble: func(ScaleSpec, []Cell, []any) (any, Report) { return nil, Report{} },
		}
	}
	r := NewRegistry()
	r.MustRegister(exp("a", cell("big", "", 5, 3), cell("quiet", "", 4, 0), cell("shared", "k", 3, 2)))
	r.MustRegister(exp("b", cell("shared-too", "k", 3, 2), cell("small", "", 1, 1)))
	return r
}

// runDelivery runs the delivery registry and returns the interleaved
// callback log ("cell a/big", "trace a/big 3", …) and the trace
// deliveries alone.
func runDelivery(t *testing.T, workers int, gate chan struct{}, release string) (log, traces []string) {
	t.Helper()
	_, err := deliveryRegistry(gate).Run(RunOptions{
		Workers: workers,
		OnCell: func(exp, cell string, _ time.Duration) {
			log = append(log, "cell "+exp+"/"+cell)
			if exp+"/"+cell == release {
				close(gate)
			}
		},
		OnSimTrace: func(exp, cell string, tr *simtrace.Tracer) {
			line := fmt.Sprintf("trace %s/%s %d", exp, cell, tr.Len())
			log = append(log, line)
			traces = append(traces, line)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return log, traces
}

func TestSimTraceStreamsInCostOrder(t *testing.T) {
	log, traces := runDelivery(t, 1, nil, "")
	want := []string{
		"cell a/big", "trace a/big 3",
		"cell a/quiet",
		"cell a/shared", "trace a/shared 2",
		"cell b/small", "trace b/small 1",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("workers=1 callbacks:\n got %q\nwant %q", log, want)
	}

	// With two workers a/big is held until a/shared has completed, so
	// a/shared and a/quiet finish first; their traces must still wait
	// for a/big and arrive in the same order as with one worker.
	log2, traces2 := runDelivery(t, 2, make(chan struct{}), "a/shared")
	if !reflect.DeepEqual(traces2, traces) {
		t.Fatalf("workers=2 deliveries %q, want the workers=1 order %q", traces2, traces)
	}
	pos := func(line string) int {
		for i, l := range log2 {
			if l == line {
				return i
			}
		}
		t.Fatalf("workers=2 log %q has no %q", log2, line)
		return -1
	}
	if pos("cell a/shared") > pos("cell a/big") {
		t.Fatalf("gate did not reorder completions: %q", log2)
	}
	if pos("trace a/shared 2") < pos("cell a/big") {
		t.Fatalf("a/shared delivered before the earlier a/big completed: %q", log2)
	}

	seen := map[string]bool{}
	for _, line := range traces2 {
		if seen[line] {
			t.Fatalf("%s delivered twice", line)
		}
		seen[line] = true
		if strings.HasSuffix(line, " 0") || strings.Contains(line, "quiet") || strings.Contains(line, "shared-too") {
			t.Fatalf("unexpected delivery %q", line)
		}
	}
}

// TestSimTraceOnlySingleMachineCells: the tracer reaches a cell's
// simulation only through the machine runSingle attaches it to, so
// with OnSimTrace set the cells that build their own machines — the
// DES timeline and the Fig. 9 cluster — must deliver no trace.
func TestSimTraceOnlySingleMachineCells(t *testing.T) {
	spec := TestSpec()
	spec.Timeline.Duration = 2 * sim.Second
	spec.Cluster = Fig9Scale{Columns: 2, Queries: 200, Warmup: 50, RatePerRow: 1000, Seed: 2017}
	var cells []string
	var traced []string
	_, err := DefaultRegistry().Run(RunOptions{
		Spec:    spec,
		Workers: 1,
		Filter:  regexp.MustCompile(`^(timeline|fig9)$`),
		OnCell: func(exp, cell string, _ time.Duration) {
			cells = append(cells, exp+"/"+cell)
		},
		OnSimTrace: func(exp, cell string, tr *simtrace.Tracer) {
			traced = append(traced, fmt.Sprintf("%s/%s %d", exp, cell, tr.Len()))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("ran cells %q, want fig9's three and the timeline", cells)
	}
	if len(traced) != 0 {
		t.Fatalf("cells delivered traces: %q", traced)
	}
}
