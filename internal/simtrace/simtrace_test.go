package simtrace

import (
	"bytes"
	"strings"
	"testing"

	"perfiso/internal/sim"
)

func sampleTracer() *Tracer {
	tr := New()
	tr.NameTrack(0, "core 0")
	tr.NameTrack(1, "core 1")
	tr.Begin(10, 7, "query", "query", KV{"qps", "2000"})
	tr.Slice(20, 5, 0, "primary", "cpu")
	tr.Instant(22, TrackControl, "buffer-grow", "controller", KV{"cores", "41"})
	tr.Slice(25, 3, 1, "bully", "cpu")
	tr.End(30, 7, "query", "query", KV{"dropped", "false"})
	return tr
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.NameTrack(0, "x")
	tr.Slice(0, 1, 0, "a", "b")
	tr.Begin(0, 1, "a", "b")
	tr.End(0, 1, "a", "b")
	tr.Instant(0, 0, "a", "b")
	if tr.Len() != 0 || tr.Events() != nil || tr.Tracks() != nil {
		t.Fatal("nil tracer captured something")
	}
}

func TestWriteChromeDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChrome(&a, sampleTracer()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, sampleTracer()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same capture differ")
	}
	if err := ValidateChrome(a.Bytes()); err != nil {
		t.Fatalf("emitted trace fails validation: %v", err)
	}
	for _, want := range []string{`"ph":"X"`, `"ph":"b"`, `"ph":"e"`, `"ph":"i"`, `"name":"core 1"`} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

func TestEventsSortedBySimTimeThenSeq(t *testing.T) {
	tr := New()
	tr.Instant(50, 0, "late", "c")
	tr.Instant(10, 0, "early", "c")
	tr.Instant(10, 0, "early2", "c")
	ev := tr.Events()
	if ev[0].Name != "early" || ev[1].Name != "early2" || ev[2].Name != "late" {
		t.Fatalf("bad order: %s %s %s", ev[0].Name, ev[1].Name, ev[2].Name)
	}
}

func TestValidateChromeCatchesDefects(t *testing.T) {
	cases := map[string]string{
		"garbage":           `not json`,
		"empty":             `{"traceEvents":[]}`,
		"unknown phase":     `{"traceEvents":[{"name":"a","ph":"Z","ts":1}]}`,
		"slice without dur": `{"traceEvents":[{"name":"a","ph":"X","ts":1}]}`,
		"negative dur":      `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":-2}]}`,
		"end without begin": `{"traceEvents":[{"name":"a","ph":"e","id":"1","ts":1}]}`,
		"ts regression": `{"traceEvents":[{"name":"a","ph":"i","ts":5,"tid":3},` +
			`{"name":"b","ph":"i","ts":4,"tid":3}]}`,
	}
	for name, data := range cases {
		if err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted a defective trace", name)
		}
	}
	ok := `{"traceEvents":[{"name":"a","ph":"b","id":"1","ts":1}]}`
	if err := ValidateChrome([]byte(ok)); err != nil {
		t.Errorf("open async span at end of capture should be legal: %v", err)
	}
}

func TestBlameTableSelectsDeterministicQuantiles(t *testing.T) {
	var records []QueryRecord
	for i := 0; i < 1000; i++ {
		records = append(records, QueryRecord{
			ID:      1000 - i, // ids reversed vs latency to exercise the sort
			Latency: sim.Duration(i+1) * sim.Millisecond,
			Service: sim.Duration(i+1) * sim.Millisecond,
		})
	}
	cf := BlameTable(records)
	if cf.Queries != 1000 {
		t.Fatalf("queries = %d", cf.Queries)
	}
	want := map[string]sim.Duration{
		"p50":  500 * sim.Millisecond,
		"p90":  900 * sim.Millisecond,
		"p99":  990 * sim.Millisecond,
		"p999": 999 * sim.Millisecond,
	}
	for _, row := range cf.Rows {
		if row.Record.Latency != want[row.Quantile] {
			t.Errorf("%s: latency %v, want %v", row.Quantile, row.Record.Latency, want[row.Quantile])
		}
	}
	if BlameTable(nil) != nil {
		t.Error("empty record set should yield nil forensics")
	}
}

func TestQueryRecordCauseAccessors(t *testing.T) {
	r := QueryRecord{Service: 1, Queue: 2, Harvest: 3, Evict: 4, Throttle: 5, Disk: 6, Spread: 7, Other: 8}
	var sum sim.Duration
	for _, c := range Causes {
		sum += r.Cause(c)
	}
	if sum != 36 {
		t.Fatalf("cause sum %d, want 36", sum)
	}
	if r.Attributed() != 28 {
		t.Fatalf("attributed %d, want 28", r.Attributed())
	}
}
