package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"perfiso/internal/experiments"
)

// readCells loads timing.json's per-cell records and checks that they
// hold one labelled row per executed cell. Dispatched runs must also
// name the unit and count at least one lease grant per row.
func readCells(t *testing.T, path string, executed int, dispatched bool) []experiments.CellTiming {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var timing struct {
		Cells []experiments.CellTiming `json:"cells"`
	}
	if err := json.Unmarshal(blob, &timing); err != nil {
		t.Fatal(err)
	}
	if len(timing.Cells) != executed || executed == 0 {
		t.Errorf("%s has %d cells, run executed %d", path, len(timing.Cells), executed)
	}
	seen := map[string]bool{}
	for _, c := range timing.Cells {
		if c.Experiment == "" || c.Cell == "" || c.Worker == "" || c.Seconds < 0 {
			t.Errorf("cell missing labels: %+v", c)
		}
		if seen[c.Experiment+"/"+c.Cell] {
			t.Errorf("cell recorded twice: %+v", c)
		}
		seen[c.Experiment+"/"+c.Cell] = true
		if dispatched && (c.Unit == "" || c.Attempts < 1) {
			t.Errorf("dispatched cell missing unit or attempts: %+v", c)
		}
	}
	return timing.Cells
}

// cellCount reads the number of executed cells from summary.json.
func cellCount(t *testing.T, path string) int {
	t.Helper()
	var summary struct {
		CellCount int `json:"cell_count"`
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &summary); err != nil {
		t.Fatal(err)
	}
	return summary.CellCount
}

// TestStatsTraceByteIdentity is the tentpole's determinism guarantee at
// the CLI: -stats changes timing.json but leaves summary.json,
// cells.csv and the report byte-identical, and both runs record every
// executed cell in timing.json's cells.
func TestStatsTraceByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	tmp := t.TempDir()
	const filter = "^(fig10|headline)$"
	var out, errb bytes.Buffer
	code := run([]string{"-scale", "test", "-run", filter, "-quiet", "-workers", "2",
		"-results", filepath.Join(tmp, "plain"), "-report", filepath.Join(tmp, "PLAIN.md")}, &out, &errb)
	if code != 0 {
		t.Fatalf("plain: exit %d, stderr: %s", code, errb.String())
	}
	out.Reset()
	code = run([]string{"-scale", "test", "-run", filter, "-quiet", "-workers", "2", "-stats",
		"-results", filepath.Join(tmp, "instr"), "-report", filepath.Join(tmp, "INSTR.md")}, &out, &errb)
	if code != 0 {
		t.Fatalf("instrumented: exit %d, stderr: %s", code, errb.String())
	}

	for _, f := range []string{"test/summary.json", "test/cells.csv"} {
		a, err := os.ReadFile(filepath.Join(tmp, "plain", f))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(tmp, "instr", f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between plain and instrumented runs", f)
		}
	}
	a, _ := os.ReadFile(filepath.Join(tmp, "PLAIN.md"))
	b, _ := os.ReadFile(filepath.Join(tmp, "INSTR.md"))
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Error("reports differ between plain and instrumented runs")
	}

	// Both runs record every executed cell, instrumented or not.
	for _, run := range []string{"plain", "instr"} {
		n := cellCount(t, filepath.Join(tmp, run, "test", "summary.json"))
		readCells(t, filepath.Join(tmp, run, "test", "timing.json"), n, false)
	}

	// timing.json carries the folded stats and phase breakdown only
	// when instrumented.
	var timing struct {
		Stats *struct {
			SimEventsPushed uint64 `json:"sim_events_pushed"`
			RNGDraws        uint64 `json:"rng_draws"`
		} `json:"stats"`
		Phases []struct {
			Phase   string  `json:"phase"`
			Seconds float64 `json:"seconds"`
		} `json:"phases"`
	}
	blob, err := os.ReadFile(filepath.Join(tmp, "instr", "test", "timing.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &timing); err != nil {
		t.Fatal(err)
	}
	if timing.Stats == nil || timing.Stats.SimEventsPushed == 0 || timing.Stats.RNGDraws == 0 {
		t.Errorf("instrumented timing.json missing live stats: %s", blob)
	}
	if len(timing.Phases) == 0 {
		t.Errorf("instrumented timing.json missing the phase breakdown: %s", blob)
	}
	blob, err = os.ReadFile(filepath.Join(tmp, "plain", "test", "timing.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte(`"stats"`)) || bytes.Contains(blob, []byte(`"phases"`)) {
		t.Errorf("uninstrumented timing.json grew stats sections: %s", blob)
	}
}

// lockedBuffer lets the test read a subcommand's output while it is
// still running in a goroutine.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestServeObservability is the dispatched acceptance run: serve with
// -stats, a 3-loop work fleet, a /metrics scrape that matches the
// final timing.json dispatch section, and timing.json cells covering
// every executed unit once.
func TestServeObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	tmp := t.TempDir()
	const filter = "^(fig10|headline)$"
	manifest := filepath.Join(tmp, "m.json")
	var out, errb bytes.Buffer
	if code := run([]string{"manifest", "-scale", "test", "-run", filter, "-o", manifest}, &out, &errb); code != 0 {
		t.Fatalf("manifest: exit %d, stderr: %s", code, errb.String())
	}

	sout, serr := &lockedBuffer{}, &lockedBuffer{}
	serveDone := make(chan int, 1)
	go func() {
		serveDone <- run([]string{"serve", "-manifest", manifest, "-addr", "127.0.0.1:0",
			"-linger", "2s", "-stats", "-pprof",
			"-results", filepath.Join(tmp, "out"), "-report", filepath.Join(tmp, "SERVED.md")},
			sout, serr)
	}()

	addrRE := regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if m := addrRE.FindStringSubmatch(sout.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case code := <-serveDone:
			t.Fatalf("serve exited early with %d, stderr: %s", code, serr.String())
		default:
		}
	}
	if addr == "" {
		t.Fatalf("serve never reported its address: %s", sout.String())
	}
	base := "http://" + addr

	// /metrics answers before any worker shows up, and pprof is
	// mounted on request.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	pre, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}
	if !strings.Contains(string(pre), "perfiso_dispatch_units_pending") {
		t.Errorf("metrics missing dispatch gauges:\n%s", pre)
	}
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", resp.StatusCode)
	}

	var wout, werrb bytes.Buffer
	if code := run([]string{"work", "-coordinator", base, "-name", "fleet", "-workers", "3", "-quiet"}, &wout, &werrb); code != 0 {
		t.Fatalf("work: exit %d, stderr: %s", code, werrb.String())
	}

	// The linger window keeps the server answering after the last
	// upload; scrape the terminal counter values.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	post, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metric := func(name string) float64 {
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
		m := re.FindStringSubmatch(string(post))
		if m == nil {
			t.Fatalf("metric %s not exposed:\n%s", name, post)
		}
		var v float64
		fmt.Sscanf(m[1], "%g", &v)
		return v
	}
	units := metric("perfiso_dispatch_units")
	done := metric("perfiso_dispatch_units_done")
	claims := metric("perfiso_dispatch_claims_total")
	steals := metric("perfiso_dispatch_steals_total")
	expiries := metric("perfiso_dispatch_lease_expiries_total")
	stale := metric("perfiso_dispatch_stale_uploads_total")
	if units == 0 || done != units {
		t.Errorf("metrics: units=%v done=%v", units, done)
	}

	if code := <-serveDone; code != 0 {
		t.Fatalf("serve: exit %d, stderr: %s", code, serr.String())
	}

	var timing struct {
		Dispatch *struct {
			Units        int `json:"units"`
			Steals       int `json:"steals"`
			Requeues     int `json:"requeues"`
			StaleUploads int `json:"stale_uploads"`
			Workers      []struct {
				Claims int `json:"claims"`
			} `json:"workers"`
		} `json:"dispatch"`
		Stats *struct {
			DispatchClaims uint64 `json:"dispatch_claims"`
		} `json:"stats"`
	}
	blob, err := os.ReadFile(filepath.Join(tmp, "out", "test", "timing.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &timing); err != nil {
		t.Fatal(err)
	}
	if timing.Dispatch == nil || timing.Stats == nil {
		t.Fatalf("timing.json missing dispatch/stats sections: %s", blob)
	}
	dt := timing.Dispatch
	totalClaims := 0
	for _, w := range dt.Workers {
		totalClaims += w.Claims
	}
	// The scrape happened after the last upload, so every counter is at
	// its terminal value — it must equal what timing.json recorded.
	if int(units) != dt.Units || int(claims) != totalClaims ||
		int(steals) != dt.Steals || int(expiries) != dt.Requeues || int(stale) != dt.StaleUploads {
		t.Errorf("metrics (units=%v claims=%v steals=%v expiries=%v stale=%v) disagree with timing.json %+v",
			units, claims, steals, expiries, stale, dt)
	}
	if timing.Stats.DispatchClaims != uint64(totalClaims) {
		t.Errorf("stats section counted %d claims, timing says %d", timing.Stats.DispatchClaims, totalClaims)
	}
	// timing.json's cells cover every executed unit once.
	readCells(t, filepath.Join(tmp, "out", "test", "timing.json"), dt.Units, true)
}

// TestShardTraceMergeReassembly: shards record each executed unit in
// their partials, and the merge reassembles them into timing.json's
// cells, each attributed to the shard that ran it.
func TestShardTraceMergeReassembly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	tmp := t.TempDir()
	shards := filepath.Join(tmp, "shards")
	const filter = "^(fig10|headline)$"
	for i := 0; i < 2; i++ {
		var out, errb bytes.Buffer
		code := run([]string{"run", "-scale", "test", "-run", filter, "-quiet",
			"-shard", fmt.Sprintf("%d/2", i),
			"-partial", filepath.Join(shards, fmt.Sprintf("s%d.json", i))}, &out, &errb)
		if code != 0 {
			t.Fatalf("shard %d: exit %d, stderr: %s", i, code, errb.String())
		}
	}
	var out, errb bytes.Buffer
	code := run([]string{"merge", "-scale", "test", "-run", filter, "-shards", shards,
		"-results", filepath.Join(tmp, "merged"), "-report", filepath.Join(tmp, "MERGED.md")}, &out, &errb)
	if code != 0 {
		t.Fatalf("merge: exit %d, stderr: %s", code, errb.String())
	}
	n := cellCount(t, filepath.Join(tmp, "merged", "test", "summary.json"))
	cells := readCells(t, filepath.Join(tmp, "merged", "test", "timing.json"), n, false)
	workers := map[string]bool{}
	for _, c := range cells {
		workers[c.Worker] = true
	}
	if len(workers) != 2 {
		t.Errorf("merged cells attributed to %d shards, want 2: %v", len(workers), workers)
	}
}
