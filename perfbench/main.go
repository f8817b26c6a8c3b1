// Command perfbench is perfiso's end-to-end benchmark. It runs one
// named workload of registered experiments at the committed test scale
// from outside the program, through the registry, dispatch, shard and
// report APIs; checks every cell's artifact rows against an oracle;
// and prints one JSON result line as the last line of standard output.
//
// Run it from the repository root; perfbench/run.sh builds it there
// and passes its arguments on:
//
//	bash perfbench/run.sh --workload colocation --seed 2017 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with every observer off. With --trace 1 it carries the per-layer
// metrics, taken from iterations run with the obs.Recording counters,
// a CPU profile and benchmark-side spans attached, interleaved with
// untraced iterations that price the tracing. README.md lists the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// committedDir holds the artifacts results/test was generated with,
// relative to the repository root.
const committedDir = "results/test"

// outRoot is where the benchmark writes its scratch artifacts, spans
// and profiles, relative to the repository root.
const outRoot = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: colocation, cluster or simtrace")
	seed := fs.Uint64("seed", defaultSeed, "seed of every experiment family")
	seconds := fs.Int("seconds", 10, "measure for at least this many seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced iterations")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := workloadByName(*name)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds %d, want >= 1", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace %d, want 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if _, err := os.Stat(filepath.Join(committedDir, "cells.csv")); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	// Each workload is one process with at most two threads running Go
	// code, whatever the host's core count.
	runtime.GOMAXPROCS(2)

	out := filepath.Join(outRoot, wl.name)
	res, err := measure(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, out, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line. Attempted counts every
// executed cell, reference run included; Failed counts those that
// differ from the oracle, whose sim trace fails validation, or whose
// traced iteration's exact counters differ from the first one's.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs the reference, then timed iterations until the budget
// is spent, and folds them into a result. Untraced runs make at least
// three iterations, so every end-to-end metric is a median of three
// or more; traced runs alternate untraced and traced iterations and
// make at least two traced ones, whose exact counters must agree.
func measure(wl workload, seed uint64, budget time.Duration, traced bool, out string, log io.Writer) (result, error) {
	var res result
	if err := os.RemoveAll(out); err != nil {
		return res, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return res, err
	}
	b, err := newBench(wl, specFor(seed), out, log)
	if err != nil {
		return res, err
	}
	committed := ""
	if seed == defaultSeed {
		committed = committedDir
	}
	refCells, refBad, err := b.reference(committed)
	if err != nil {
		return res, err
	}
	res.Attempted = refCells
	res.Failed = failedCells(log, "reference", refBad, refCells)

	var plain, tracedIts []iteration
	start := time.Now() //perfiso:allow walltime benchmark run budget
	for i := 0; ; i++ {
		spent := time.Since(start) >= budget //perfiso:allow walltime benchmark run budget
		if spent && ((!traced && len(plain) >= 3) || (traced && len(plain) >= 1 && len(tracedIts) >= 2)) {
			break
		}
		doTrace := traced && i%2 == 1
		// The first iteration also validates every exported sim trace.
		it, err := b.iterate(doTrace, i == 0)
		if err != nil {
			return res, err
		}
		logIteration(log, it)
		res.Attempted += it.cells
		res.Failed += failedCells(log, "iteration", it.failed, it.cells)
		if !doTrace {
			plain = append(plain, it)
			continue
		}
		if len(tracedIts) > 0 && exactOf(it.counts) != exactOf(tracedIts[0].counts) {
			fmt.Fprintf(log, "perfbench: exact counters differ between traced iterations: %+v vs %+v\n",
				exactOf(it.counts), exactOf(tracedIts[0].counts))
			res.Failed += it.cells
		}
		tracedIts = append(tracedIts, it)
	}
	res.Correct = res.Failed == 0

	var values map[string]float64
	var defs []metricDef
	if traced {
		values, defs = layerValues(b, plain, tracedIts), perLayer
		if err := b.spans.writeJSONL(filepath.Join(out, "spans.jsonl")); err != nil {
			return res, err
		}
	} else {
		values, defs = endToEndValues(plain), endToEnd
	}
	res.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// failedCells logs a run's mismatches and counts them, at most one per
// executed cell.
func failedCells(log io.Writer, what string, bad []string, cells int) int {
	for _, c := range bad {
		fmt.Fprintf(log, "perfbench: %s: %s differs from the oracle\n", what, c)
	}
	return min(len(bad), cells)
}

// median of xs; xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over the iterations.
func medianOf(its []iteration, f func(iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return median(xs)
}
