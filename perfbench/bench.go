package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"perfiso/internal/dispatch"
	"perfiso/internal/experiments"
	"perfiso/internal/obs"
	"perfiso/internal/report"
	"perfiso/internal/shard"
	"perfiso/internal/simtrace"
)

// bench runs one workload's iterations against a fixed oracle.
type bench struct {
	wl        workload
	spec      experiments.ScaleSpec
	filter    *regexp.Regexp
	oracleDir string // artifacts every iteration must reproduce
	outDir    string // where the benchmark writes its own files
	log       io.Writer
	spans     *spanLog // spans of every traced iteration
	prof      *tally   // CPU samples of every traced iteration
	iters     int
}

func newBench(wl workload, spec experiments.ScaleSpec, outDir string, log io.Writer) (*bench, error) {
	filter, err := regexp.Compile(wl.pattern)
	if err != nil {
		return nil, err
	}
	return &bench{
		wl:     wl,
		spec:   spec,
		filter: filter,
		outDir: outDir,
		log:    log,
		spans:  &spanLog{origin: time.Now()}, //perfiso:allow walltime benchmark span clock
		prof:   newTally(),
	}, nil
}

// reference runs the workload once on a 1-worker in-process pool with
// no observers and writes its artifacts under outDir. With committed
// set (the default seed) it checks them against the committed
// artifacts, which stay the oracle; otherwise the reference becomes
// the oracle. It returns the executed cell count and the mismatches.
func (b *bench) reference(committed string) (int, []string, error) {
	reg := experiments.DefaultRegistry()
	res, err := reg.Run(experiments.RunOptions{Spec: b.spec, Workers: 1, Filter: b.filter})
	if err != nil {
		return 0, nil, fmt.Errorf("reference run: %w", err)
	}
	dir := filepath.Join(b.outDir, "reference")
	if err := experiments.WriteArtifacts(dir, res); err != nil {
		return 0, nil, fmt.Errorf("reference artifacts: %w", err)
	}
	b.oracleDir = dir
	if committed == "" {
		return res.CellCount, nil, nil
	}
	b.oracleDir = committed
	sel, err := selectCells(reg, b.spec, b.wl.pattern)
	if err != nil {
		return 0, nil, err
	}
	got, err := loadRows(dir, sel.experiments)
	if err != nil {
		return 0, nil, err
	}
	want, err := loadRows(committed, sel.experiments)
	if err != nil {
		return 0, nil, err
	}
	return res.CellCount, mismatchedCells(got, want), nil
}

// iteration is one timed execution of the workload.
type iteration struct {
	traced bool

	// End-to-end, measured from the iteration's entry.
	setup, wall, cpu, rssMB float64

	cells, shared int
	failed        []string // experiment,cell names that differ from the oracle
	cellSecs      []float64

	runSec, mergeSec, assembleSec, artifactsSec, figuresSec float64
	exportSec, heapAtDeliveryMB                             float64
	chromeBytes                                             int64

	// Traced iterations only.
	counts                        obs.Snapshot
	mallocs, allocBytes, gcCycles uint64
	rowsMatched                   int
	queries                       int64
}

// exported is one sim trace delivered by the registry.
type exported struct {
	id    string
	tr    *simtrace.Tracer
	bytes int64
}

// countingWriter is the trace sink: it keeps only the byte count.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// runName is the span name of the call that executes a workload's
// cells.
func runName(m mode) string {
	if m == dispatchMode {
		return "dispatch.RunLocal"
	}
	return "experiments.Registry.Run"
}

// iterate executes the workload once: set up, run every cell, assemble,
// write the artifacts and figures, then (outside the timed window)
// check them against the oracle. A traced iteration also records the
// obs counters, a CPU profile and spans. validate additionally
// re-exports every sim trace and checks it with
// simtrace.ValidateChrome.
func (b *bench) iterate(traced, validate bool) (it iteration, err error) {
	it.traced = traced
	b.iters++
	if err := settle(); err != nil {
		return it, err
	}
	var (
		spans *spanLog
		rec   *obs.Recording
		prof  bytes.Buffer
		ms0   runtime.MemStats
	)
	if traced {
		spans = b.spans
		spans.iter = b.iters
		runtime.ReadMemStats(&ms0)
		rec = obs.NewRecording()
		obs.SetDefault(rec)
		defer obs.SetDefault(nil)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return it, err
		}
		defer pprof.StopCPUProfile()
	}
	cpu0, err := cpuSeconds()
	if err != nil {
		return it, err
	}
	t0 := time.Now() //perfiso:allow walltime benchmark iteration clock

	reg := experiments.DefaultRegistry()
	sel, err := selectCells(reg, b.spec, b.wl.pattern)
	if err != nil {
		return it, err
	}
	oracle, err := loadRows(b.oracleDir, sel.experiments)
	if err != nil {
		return it, fmt.Errorf("load oracle: %w", err)
	}

	run := runName(b.wl.mode)
	var first time.Time
	// Both Registry.Run and RunLocal serialize their cell callbacks.
	onCell := func(exp, cell string, d time.Duration) {
		end := time.Now() //perfiso:allow walltime benchmark cell span
		start := end.Add(-d)
		if first.IsZero() || start.Before(first) {
			first = start
		}
		it.cellSecs = append(it.cellSecs, d.Seconds())
		spans.add("cell", exp+"/"+cell, run, start, end)
	}

	var res experiments.RunResult
	var traces []exported
	var exportErr error
	runStart := time.Now() //perfiso:allow walltime benchmark span clock
	switch b.wl.mode {
	case poolMode, simtraceMode:
		opts := experiments.RunOptions{Spec: b.spec, Workers: b.wl.workers, Filter: b.filter, OnCell: onCell}
		if b.wl.mode == simtraceMode {
			opts.OnSimTrace = func(exp, cell string, tr *simtrace.Tracer) {
				if tr.Len() == 0 || exportErr != nil {
					return
				}
				if it.heapAtDeliveryMB == 0 {
					it.heapAtDeliveryMB = heapMB()
				}
				var sink countingWriter
				start := time.Now() //perfiso:allow walltime benchmark export timing
				exportErr = simtrace.WriteChrome(&sink, tr)
				end := time.Now() //perfiso:allow walltime benchmark export timing
				it.exportSec += end.Sub(start).Seconds()
				it.chromeBytes += sink.n
				spans.add("simtrace.WriteChrome", exp+"/"+cell, run, start, end)
				if validate {
					traces = append(traces, exported{id: exp + "/" + cell, tr: tr, bytes: sink.n})
				}
			}
		}
		res, err = reg.Run(opts)
		if err != nil {
			return it, err
		}
		if exportErr != nil {
			return it, fmt.Errorf("export sim trace: %w", exportErr)
		}
		for _, p := range res.Phases {
			if p.Phase == "assemble" {
				it.assembleSec = p.Seconds
			}
		}
	case dispatchMode:
		p, _, err := dispatch.RunLocal(reg, b.spec, b.wl.pattern, b.wl.workers, dispatch.Options{}, onCell)
		if err != nil {
			return it, err
		}
		mergeStart := time.Now() //perfiso:allow walltime benchmark span clock
		it.runSec = mergeStart.Sub(runStart).Seconds()
		spans.add(run, b.wl.name, "", runStart, mergeStart)
		if res, _, err = shard.Merge(reg, b.spec, b.wl.pattern, []shard.Partial{p}); err != nil {
			return it, err
		}
		mergeEnd := time.Now() //perfiso:allow walltime benchmark span clock
		it.mergeSec = mergeEnd.Sub(mergeStart).Seconds()
		spans.add("shard.Merge", b.wl.name, "", mergeStart, mergeEnd)
	}
	runEnd := time.Now() //perfiso:allow walltime benchmark span clock
	if b.wl.mode != dispatchMode {
		it.runSec = runEnd.Sub(runStart).Seconds()
		spans.add(run, b.wl.name, "", runStart, runEnd)
	}
	if first.IsZero() {
		return it, fmt.Errorf("no cell ran")
	}

	dir := filepath.Join(b.outDir, "run")
	if err := experiments.WriteArtifacts(dir, res); err != nil {
		return it, fmt.Errorf("write artifacts: %w", err)
	}
	artEnd := time.Now() //perfiso:allow walltime benchmark span clock
	spans.add("experiments.WriteArtifacts", b.wl.name, "", runEnd, artEnd)
	figs := report.Figures(report.DatasetOf(res))
	figEnd := time.Now() //perfiso:allow walltime benchmark span clock
	spans.add("report.Figures", b.wl.name, "", artEnd, figEnd)
	if err := report.WriteFigures(dir, figs); err != nil {
		return it, fmt.Errorf("write figures: %w", err)
	}
	end := time.Now() //perfiso:allow walltime benchmark iteration clock
	spans.add("report.WriteFigures", b.wl.name, "", figEnd, end)

	cpu1, err := cpuSeconds()
	if err != nil {
		return it, err
	}
	if it.rssMB, err = peakRSSMB(); err != nil {
		return it, err
	}
	it.wall = end.Sub(t0).Seconds()
	it.cpu = cpu1 - cpu0
	it.setup = first.Sub(t0).Seconds()
	it.artifactsSec = artEnd.Sub(runEnd).Seconds()
	it.figuresSec = end.Sub(artEnd).Seconds()
	it.cells, it.shared = res.CellCount, res.SharedCells
	spans.add("iteration", b.wl.name, "", t0, end)

	// Everything below is outside the timed window.
	if traced {
		pprof.StopCPUProfile()
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		it.counts = rec.Snapshot()
		obs.SetDefault(nil)
		it.mallocs = ms1.Mallocs - ms0.Mallocs
		it.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		it.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
		if err := b.addProfile(prof.Bytes()); err != nil {
			return it, err
		}
		it.rowsMatched = countMatchedRows(experiments.RenderMarkdown(res))
	}
	got, err := loadRows(dir, sel.experiments)
	if err != nil {
		return it, err
	}
	it.failed = mismatchedCells(got, oracle)
	it.failed = append(it.failed, validateTraces(b.log, traces)...)
	if traced {
		it.queries = forensicQueries(got, sel.executed)
	}
	return it, nil
}

// addProfile folds one iteration's CPU profile into the tally and
// keeps it on disk for go tool pprof.
func (b *bench) addProfile(data []byte) error {
	samples, err := parseProfile(data)
	if err != nil {
		return err
	}
	b.prof.add(samples)
	return os.WriteFile(filepath.Join(b.outDir, fmt.Sprintf("cpu-%d.pprof", b.iters)), data, 0o644)
}

// validateTraces re-exports each trace into memory and returns the ids
// of those that fail simtrace.ValidateChrome or export a different
// number of bytes than the timed export did.
func validateTraces(log io.Writer, traces []exported) []string {
	var bad []string
	for _, t := range traces {
		var buf bytes.Buffer
		err := simtrace.WriteChrome(&buf, t.tr)
		if err == nil && int64(buf.Len()) != t.bytes {
			err = fmt.Errorf("re-export wrote %d bytes, timed export %d", buf.Len(), t.bytes)
		}
		if err == nil {
			err = simtrace.ValidateChrome(buf.Bytes())
		}
		if err != nil {
			fmt.Fprintf(log, "perfbench: sim trace %s: %v\n", t.id, err)
			bad = append(bad, "simtrace "+t.id)
		}
	}
	return bad
}

// countMatchedRows counts the ✓ rows of the report's paper-vs-
// reproduced table.
func countMatchedRows(md string) int {
	n := 0
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "| ") && strings.HasSuffix(line, "| ✓ |") {
			n++
		}
	}
	return n
}

// forensicQueries sums the measured-query counts of the executed
// cells' forensics rows (experiment,cell,all,queries,N).
func forensicQueries(rows rowSet, executed map[string]bool) int64 {
	var total int64
	for cell := range executed {
		for _, line := range strings.Split(rows["forensics.csv|"+cell], "\n") {
			if v, ok := strings.CutPrefix(line, cell+",all,queries,"); ok {
				if n, err := strconv.ParseInt(v, 10, 64); err == nil {
					total += n
				}
			}
		}
	}
	return total
}

// logIteration prints a one-line human summary to w.
func logIteration(w io.Writer, it iteration) {
	kind := "untraced"
	if it.traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "perfbench: %s iteration: wall %.3fs cpu %.3fs peak RSS %.1f MiB setup %.4fs, %d cells, %d mismatched\n",
		kind, it.wall, it.cpu, it.rssMB, it.setup, it.cells, len(it.failed))
}
