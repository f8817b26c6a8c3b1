package simtrace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"testing"

	"perfiso/internal/sim"
)

// referenceWriteChrome is the original fmt-based Chrome encoder, kept
// as the differential oracle for WriteChrome: straightforward
// Fprintf/Quote formatting over a sort.Slice-ordered copy of the
// events. WriteChrome must match it byte for byte.
func referenceWriteChrome(w io.Writer, t *Tracer) error {
	tsMicros := func(ns int64) string {
		if ns < 0 {
			ns = 0
		}
		return strconv.FormatInt(ns/1000, 10) + "." + fmt.Sprintf("%03d", ns%1000)
	}
	var events []Event
	if t != nil {
		events = append(events, t.events...)
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		return events[i].Seq < events[j].Seq
	})
	bw := bufio.NewWriter(w)
	io.WriteString(bw, "{\"traceEvents\":[\n")
	io.WriteString(bw, `{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"perfiso-sim"}}`)
	for _, tr := range t.Tracks() {
		fmt.Fprintf(bw, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":%s}}",
			tid(tr.ID), strconv.Quote(tr.Name))
	}
	fmt.Fprintf(bw, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"control\"}}", controlTID)
	for _, e := range events {
		io.WriteString(bw, ",\n{")
		io.WriteString(bw, `"name":`)
		io.WriteString(bw, strconv.Quote(e.Name))
		if e.Cat != "" {
			io.WriteString(bw, `,"cat":`)
			io.WriteString(bw, strconv.Quote(e.Cat))
		}
		switch e.Kind {
		case KindSlice:
			fmt.Fprintf(bw, `,"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s`,
				tid(e.Track), tsMicros(int64(e.TS)), tsMicros(int64(e.Dur)))
		case KindBegin:
			fmt.Fprintf(bw, `,"ph":"b","pid":0,"tid":%d,"id":"%d","ts":%s`,
				tid(e.Track), e.ID, tsMicros(int64(e.TS)))
		case KindEnd:
			fmt.Fprintf(bw, `,"ph":"e","pid":0,"tid":%d,"id":"%d","ts":%s`,
				tid(e.Track), e.ID, tsMicros(int64(e.TS)))
		case KindInstant:
			fmt.Fprintf(bw, `,"ph":"i","s":"t","pid":0,"tid":%d,"ts":%s`,
				tid(e.Track), tsMicros(int64(e.TS)))
		}
		if len(e.Args) > 0 {
			io.WriteString(bw, `,"args":{`)
			for i, a := range e.Args {
				if i > 0 {
					io.WriteString(bw, ",")
				}
				io.WriteString(bw, strconv.Quote(a.Key))
				io.WriteString(bw, ":")
				io.WriteString(bw, strconv.Quote(a.Value))
			}
			io.WriteString(bw, "}")
		}
		io.WriteString(bw, "}")
	}
	io.WriteString(bw, "\n]}\n")
	return bw.Flush()
}

// trickyStrings covers every escaping path of strconv.Quote: quotes,
// backslashes, control bytes, DEL, invalid UTF-8, printable and
// non-printable non-ASCII runes, and the empty string.
var trickyStrings = []string{
	"", "query", `say "hi"`, `back\slash`, "tab\there", "nul\x00", "\x1f", "del\x7f",
	"bad\xff\xfeutf8", "caf\u00e9 \u6f22\u5b57", "line\u2028sep", "nbsp\u00a0", "\U0001F600", "'single'",
}

// fuzzTracer decodes data into a tracer. Each op consumes five bytes:
// kind (slice/begin/end/instant/name-track), a small signed TS so ties
// and negative times are common, a signed duration, a track selector
// (with the control track) and a string selector. Strings come from
// trickyStrings or, for selectors past it, as raw bytes of the input.
func fuzzTracer(data []byte) *Tracer {
	tr := New()
	str := func(sel byte, at int) string {
		if int(sel) < len(trickyStrings) {
			return trickyStrings[sel]
		}
		n := int(sel) % 7
		if at+n > len(data) {
			n = len(data) - at
		}
		return string(data[at : at+n])
	}
	for i := 0; i+5 <= len(data); i += 5 {
		op, ts, dur, track, sel := data[i], sim.Time(int8(data[i+1]))*250, sim.Duration(int8(data[i+2]))*37, int(data[i+3]%4), data[i+4]%24
		if data[i+3]&0x80 != 0 {
			track = TrackControl
		}
		name, cat := str(sel, i+5), str(sel/2, i)
		var args []KV
		if op&0x80 != 0 {
			args = append(args, KV{str(sel/3, i+1), str(sel+1, i+2)})
		}
		if op&0x40 != 0 {
			args = append(args, KV{"k", str(sel/4, i+3)})
		}
		switch op % 5 {
		case 0:
			tr.Slice(ts, dur, track, name, cat, args...)
		case 1:
			tr.Begin(ts, int(int8(data[i+2])), name, cat, args...)
		case 2:
			tr.End(ts, int(int8(data[i+2])), name, cat, args...)
		case 3:
			tr.Instant(ts, track, name, cat, args...)
		case 4:
			tr.NameTrack(track, name)
		}
	}
	return tr
}

// checkMatchesReference exports tr with both encoders and requires
// byte equality, then checks that the export left the capture in
// push order and that Events is still a (TS, Seq)-sorted copy.
func checkMatchesReference(t *testing.T, tr *Tracer) {
	t.Helper()
	pushed := slices.Clone(tr.events)
	var got, want bytes.Buffer
	if err := WriteChrome(&got, tr); err != nil {
		t.Fatal(err)
	}
	if err := referenceWriteChrome(&want, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteChrome differs from the reference encoder:\n got %q\nwant %q", got.String(), want.String())
	}
	for i := range pushed {
		if tr.events[i].Seq != pushed[i].Seq || tr.events[i].Name != pushed[i].Name {
			t.Fatalf("export reordered the capture at %d", i)
		}
	}
	ev := tr.Events()
	if len(ev) != len(pushed) {
		t.Fatalf("Events returned %d of %d events", len(ev), len(pushed))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i-1].TS > ev[i].TS || ev[i-1].TS == ev[i].TS && ev[i-1].Seq >= ev[i].Seq {
			t.Fatalf("Events not sorted by (TS, Seq) at %d", i)
		}
	}
	if len(ev) > 0 {
		ev[0].Name = "mutated"
		if tr.events[ev[0].Seq].Name == "mutated" {
			t.Fatal("Events aliases the tracer's storage")
		}
	}
}

func TestWriteChromeMatchesReference(t *testing.T) {
	tr := New()
	tr.NameTrack(2, "core 2")
	tr.NameTrack(0, `core "0"`)
	tr.NameTrack(2, "core 2 renamed")
	tr.Slice(50, 10, 0, "primary", "cpu", KV{"q", "1"})
	tr.Slice(-5, -3, 2, "bully", "") // clamped ts and dur, no cat
	tr.Begin(50, 7, "query", "query", KV{"qps", "2000"}, KV{"k\\", "v\x01"})
	tr.Instant(50, TrackControl, "buffer-grow", "controller", KV{"cores", "41"})
	tr.End(1234567, -7, "query\xff", "query")
	tr.Instant(999, 1, "café", " ")
	for _, s := range trickyStrings {
		tr.Instant(50, TrackControl, s, s, KV{s, s})
	}
	checkMatchesReference(t, tr)
	checkMatchesReference(t, New())

	var got, want bytes.Buffer
	if err := WriteChrome(&got, nil); err != nil {
		t.Fatal(err)
	}
	referenceWriteChrome(&want, nil)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("nil tracer: got %q, want %q", got.String(), want.String())
	}
}

// FuzzWriteChromeMatchesReference's seed corpus lives in
// testdata/fuzz: every kind, the control track, empty categories,
// negative and tied timestamps, and every tricky string.
func FuzzWriteChromeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesReference(t, fuzzTracer(data))
	})
}

// syntheticTracer fills a tracer with n events in the shape of a cell
// capture: per-core slices mostly in time order, query spans and
// controller instants.
func syntheticTracer(n int) *Tracer {
	tr := New()
	for c := 0; c < 8; c++ {
		tr.NameTrack(c, "core "+strconv.Itoa(c))
	}
	for i := 0; tr.Len() < n; i++ {
		ts := sim.Time(i) * 1733
		switch i % 4 {
		case 0:
			tr.Begin(ts, i, "query", "query", KV{"id", strconv.Itoa(i)})
		case 1:
			tr.Slice(ts-900, 900, i%8, "worker", "cpu")
		case 2:
			tr.Instant(ts, TrackControl, "buffer-grow", "controller", KV{"cores", "41"})
		case 3:
			tr.End(ts, i-3, "query", "query", KV{"dropped", "false"})
		}
	}
	return tr
}

// TestWriteChromeAllocsConstant is the export's allocation gate: the
// count is deterministic, so equality across sizes and a small bound
// are machine-independent.
func TestWriteChromeAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		tr := syntheticTracer(n)
		return testing.AllocsPerRun(5, func() {
			if err := WriteChrome(io.Discard, tr); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if small != large {
		t.Fatalf("WriteChrome allocates %v times for 1k events but %v for 10k", small, large)
	}
	if small > 4 {
		t.Fatalf("WriteChrome allocates %v times per export, want <= 4", small)
	}
}

func BenchmarkWriteChrome(b *testing.B) {
	tr := syntheticTracer(100000)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChrome(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
}
