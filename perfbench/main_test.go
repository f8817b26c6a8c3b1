package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"perfiso/internal/experiments"
)

// tinySpec keeps the tests fast: a few thousand queries per
// single-machine cell and a shortened Fig. 9 trace.
func tinySpec() experiments.ScaleSpec {
	spec := specFor(7)
	spec.Single.Queries, spec.Single.Warmup = 3000, 500
	spec.Cluster.Queries, spec.Cluster.Warmup = 1200, 200
	return spec
}

// TestWorkloadsReproduceReference drives each harness path the
// workloads use through untraced and traced iterations and checks
// that every artifact row matches the 1-worker reference, that the
// exact counters repeat, and that the traced layers were observed.
func TestWorkloadsReproduceReference(t *testing.T) {
	cases := []workload{
		{name: "pool", pattern: "^(fig4|headline)$", mode: poolMode, workers: 2},
		{name: "dispatch", pattern: "^fig9$", mode: dispatchMode, workers: 2},
		{name: "simtrace", pattern: "^fig4$", mode: simtraceMode, workers: 1},
	}
	for _, wl := range cases {
		t.Run(wl.name, func(t *testing.T) {
			b, err := newBench(wl, tinySpec(), t.TempDir(), os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			if _, bad, err := b.reference(""); err != nil || len(bad) > 0 {
				t.Fatalf("reference: mismatches %v, err %v", bad, err)
			}
			plain, err := b.iterate(false, true)
			if err != nil {
				t.Fatal(err)
			}
			var traced [2]iteration
			for i := range traced {
				if traced[i], err = b.iterate(true, false); err != nil {
					t.Fatal(err)
				}
			}
			for _, it := range []iteration{plain, traced[0], traced[1]} {
				if len(it.failed) > 0 {
					t.Errorf("traced=%v: cells differ from the reference: %v", it.traced, it.failed)
				}
				if it.cells == 0 || it.setup <= 0 || it.wall < it.setup || it.rssMB <= 0 {
					t.Errorf("traced=%v: implausible iteration %+v", it.traced, it)
				}
			}
			if exactOf(traced[0].counts) != exactOf(traced[1].counts) {
				t.Errorf("exact counters differ: %+v vs %+v", exactOf(traced[0].counts), exactOf(traced[1].counts))
			}
			if c := traced[0].counts; c.SimEventsPopped == 0 || c.SimMaxHeapDepth == 0 {
				t.Errorf("traced iteration recorded no sim work: %+v", c)
			}
			if wl.mode == dispatchMode && traced[0].counts.DispatchClaims != uint64(traced[0].cells) {
				t.Errorf("dispatch claims %d, want one per cell (%d)", traced[0].counts.DispatchClaims, traced[0].cells)
			}
			if wl.mode == simtraceMode && (plain.chromeBytes == 0 || plain.chromeBytes != traced[0].chromeBytes) {
				t.Errorf("chrome bytes: untraced %d, traced %d", plain.chromeBytes, traced[0].chromeBytes)
			}
			if b.prof.total == 0 {
				t.Error("traced iterations collected no CPU samples")
			}
			names := map[string]bool{}
			for _, s := range b.spans.spans {
				names[s.Name] = true
			}
			for _, want := range []string{"cell", runName(wl.mode), "experiments.WriteArtifacts", "report.Figures", "iteration"} {
				if !names[want] {
					t.Errorf("no %q span among %v", want, names)
				}
			}
			v := layerValues(b, []iteration{plain}, traced[:])
			for _, d := range perLayer {
				if _, ok := v[d.name]; !ok {
					t.Errorf("per-layer metric %s not computed", d.name)
				}
			}
		})
	}
}

// TestMismatchedCells checks the oracle comparison on hand-written
// artifacts: a changed value, a missing row and an extra cell all
// count, rows of other experiments do not.
func TestMismatchedCells(t *testing.T) {
	write := func(dir, cells string) {
		t.Helper()
		files := map[string]string{
			"cells.csv":     "experiment,cell,metric,value\n" + cells,
			"series.csv":    "experiment,cell,series,unit,t,value\nfig4,a,p99_ms,ms,1,2\n",
			"forensics.csv": "experiment,cell,quantile,stat,value\n",
		}
		for name, body := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantDir, gotDir := t.TempDir(), t.TempDir()
	write(wantDir, "fig4,a,p99ms,1\nfig4,b,p99ms,2\nfig4,b,p50ms,1\nfig9,x,p99ms,5\n")
	write(gotDir, "fig4,a,p99ms,1\nfig4,b,p99ms,2\nfig4,c,p99ms,3\nfig9,x,p99ms,6\n")
	exps := map[string]bool{"fig4": true}
	got, err := loadRows(gotDir, exps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadRows(wantDir, exps)
	if err != nil {
		t.Fatal(err)
	}
	if bad := mismatchedCells(got, want); !reflect.DeepEqual(bad, []string{"fig4,b", "fig4,c"}) {
		t.Errorf("mismatched cells %v, want [fig4,b fig4,c]", bad)
	}
	if bad := mismatchedCells(want, want); len(bad) != 0 {
		t.Errorf("identical rows reported as mismatched: %v", bad)
	}
}

// spin burns CPU so the profile has a known function to find.
//
//go:noinline
func spin(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	return x
}

func TestParseProfileFindsHotFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(500 * time.Millisecond) //perfiso:allow walltime test CPU burn
	sink := 0
	for time.Now().Before(deadline) { //perfiso:allow walltime test CPU burn
		sink += spin(1 << 16)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		// The test binary names package main by its import path.
		if len(s.funcs) > 0 && strings.HasSuffix(s.funcs[0], "perfbench.spin") {
			found = true
		}
	}
	if !found {
		t.Errorf("no sample with spin as its leaf among %d samples (sink %d)", len(samples), sink)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestLayerAndHotFunctionNames(t *testing.T) {
	const sink = "perfiso/internal/sim.(*Heap[go.shape.struct { perfiso/internal/sim.at perfiso/internal/sim.Time; perfiso/internal/sim.seq uint64 }]).sink"
	for fn, want := range map[string]string{
		sink: "sim",
		"perfiso/internal/cpumodel.(*Machine).oldestEligible": "cpumodel",
		"perfiso/internal/core.(*BlindIsolation).poll.func1":  "core",
		"runtime.mallocgc": "runtime",
		"fmt.Sprintf":      "other",
		"main.spin":        "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	tl := newTally()
	tl.add([]stackSample{
		{funcs: []string{sink, "perfiso/internal/sim.(*Engine).Run"}, count: 3},
		{funcs: []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "perfiso/internal/cpumodel.(*Machine).oldestEligible"}, count: 1},
	})
	if tl.total != 4 || tl.self["sim"] != 3 || tl.self["runtime"] != 1 {
		t.Errorf("self tally %+v", tl)
	}
	for metric, want := range map[string]int64{"sim.heap_sink_pct": 3, "runtime.malloc_pct": 1, "cpumodel.oldest_eligible_pct": 1, "runtime.gc_pct": 0} {
		if tl.hot[metric] != want {
			t.Errorf("hot %s = %d, want %d", metric, tl.hot[metric], want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads,
// metric names and units in step with what the program prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(wls, code) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", wls, code)
	}
	for _, c := range []struct {
		what string
		json []def
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var want []def
		for _, d := range c.code {
			want = append(want, def{d.name, d.unit})
		}
		if !reflect.DeepEqual(c.json, want) {
			t.Errorf("%s: BENCHMARK.json %v, code %v", c.what, c.json, want)
		}
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "colocation", "--trace", "2"},
		{"--workload", "colocation", "--seconds", "0"},
		{"--workload", "colocation", "extra"},
		// The test's working directory is perfbench/, which holds no
		// results/test: the benchmark must refuse before running.
		{"--workload", "colocation", "--seconds", "1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no result", args, code, stdout.String())
		}
		if !strings.Contains(stderr.String(), "perfbench: ") {
			t.Errorf("run(%q): no diagnostic on stderr", args)
		}
	}
}
