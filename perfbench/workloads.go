package main

import (
	"fmt"
	"regexp"

	"perfiso/internal/experiments"
)

// defaultSeed is the seed the committed results/test artifacts were
// generated with; at this seed they are the oracle.
const defaultSeed = 2017

// mode is how a workload drives the harness.
type mode int

const (
	// poolMode runs the cells on the in-process registry pool.
	poolMode mode = iota
	// dispatchMode runs them through dispatch.RunLocal's loopback
	// coordinator and workers, then shard.Merge.
	dispatchMode
	// simtraceMode runs them on the pool with a sim-domain tracer on
	// every cell and exports each trace with simtrace.WriteChrome.
	simtraceMode
)

// workload is one named set of experiments and the way they run.
type workload struct {
	name    string
	pattern string // experiment filter, as perfiso-repro run -run takes it
	mode    mode
	workers int
}

// workloads are the benchmark's workloads; README.md says why each
// exists. colocation is the single-node mechanism (sim heap, cpumodel
// scans, blind isolation); cluster is many machines per engine behind
// the dispatch and shard layers; simtrace is the traced fig4 sweep
// whose tracers are held until the pool drains.
var workloads = []workload{
	{
		name:    "colocation",
		pattern: "^(fig4|fig5|fig6|fig7|fig8|headline|fullstack|ablation-buffer|ablation-poll|ablation-holdoff)$",
		mode:    poolMode,
		workers: 2,
	},
	{
		name:    "cluster",
		pattern: "^(fig9|fig10|timeline|harvest-frontier|harvest-trace-frontier)$",
		mode:    dispatchMode,
		workers: 2,
	},
	{
		name:    "simtrace",
		pattern: "^fig4$",
		mode:    simtraceMode,
		workers: 1,
	},
}

func workloadByName(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// specFor is the committed test scale with every experiment family
// seeded from seed.
func specFor(seed uint64) experiments.ScaleSpec {
	s := experiments.TestSpec()
	s.Single.Seed = seed
	s.Cluster.Seed = seed
	s.Harvest.Seed = seed
	s.BatchTrace.Seed = seed
	s.Timeline.Seed = seed
	return s
}

// selection lists the workload's experiments and the cells the
// registry executes for them: the first cell of each Key, as
// Registry.Run deduplicates.
type selection struct {
	experiments map[string]bool
	executed    map[string]bool // "experiment,cell"
}

func selectCells(reg *experiments.Registry, spec experiments.ScaleSpec, pattern string) (selection, error) {
	filter, err := regexp.Compile(pattern)
	if err != nil {
		return selection{}, err
	}
	sel := selection{experiments: map[string]bool{}, executed: map[string]bool{}}
	keys := map[string]bool{}
	for _, e := range reg.Select(filter) {
		sel.experiments[e.Name] = true
		for _, c := range e.Cells(spec) {
			if c.Key != "" {
				if keys[c.Key] {
					continue
				}
				keys[c.Key] = true
			}
			sel.executed[e.Name+","+c.Name] = true
		}
	}
	if len(sel.experiments) == 0 {
		return selection{}, reg.NoMatchError(pattern)
	}
	return sel, nil
}
