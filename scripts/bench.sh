#!/usr/bin/env bash
# Runs the cluster-level benchmarks once and records their headline
# metrics as BENCH_cluster.json, so successive PRs accumulate a perf
# trajectory. Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-BENCH_cluster.json}"

raw=$(go test -run '^$' \
	-bench 'BenchmarkFig9Cluster$|BenchmarkHarvestFrontier$|BenchmarkFig10Production$|BenchmarkReproAll|BenchmarkTraceIO|BenchmarkDispatchOverhead|BenchmarkStatsOverhead|BenchmarkRenderFigures$' \
	-benchtime 1x -count 1 -timeout 30m .)
echo "$raw" >&2

heapraw=$(go test -run '^$' -bench 'BenchmarkEventHeap' -count 1 -timeout 10m ./internal/sim)
echo "$heapraw" >&2

# Chrome export of a 100k-event sim trace; allocs/op stays a small
# constant whatever the event count (TestWriteChromeAllocsConstant).
chromeraw=$(go test -run '^$' -bench 'BenchmarkWriteChrome' -count 1 -timeout 10m ./internal/simtrace)
echo "$chromeraw" >&2

# Perf-regression guard: the flat 4-ary heap must stay ahead of the
# retained container/heap reference. A new/old ns-per-op ratio above
# 1.2 at either depth is a regression; shared runners are noisy, so the
# default is a warning — set BENCH_STRICT=1 to make it fatal.
guard=$(echo "$heapraw" | awk '
	/^BenchmarkEventHeap\/(new|old)\// {
		split($1, parts, "/")
		sub(/-.*$/, "", parts[3])
		ns[parts[2] "/" parts[3]] = $3
	}
	END {
		bad = 0
		for (d in ns) {
			if (d !~ /^new\//) continue
			depth = substr(d, 5)
			o = ns["old/" depth]
			if (o + 0 == 0) continue
			r = ns[d] / o
			printf "BenchmarkEventHeap %s: new %.0f ns/op vs old %.0f ns/op (ratio %.2f)\n", depth, ns[d], o, r > "/dev/stderr"
			if (r > 1.2) bad = 1
		}
		print bad
	}')
if [ "$guard" = "1" ]; then
	if [ "${BENCH_STRICT:-0}" = "1" ]; then
		echo "FAIL: event-heap new/old ratio regressed past 1.2x (BENCH_STRICT)" >&2
		exit 1
	fi
	echo "WARN: event-heap new/old ratio regressed past 1.2x (set BENCH_STRICT=1 to fail)" >&2
fi

# Noop-overhead guard: the hot path with every optional observability
# layer off (RNG draw accounting, sim-trace hooks) must stay within the
# ≤2% budget of the committed baseline. Compared before the
# baseline file is overwritten. Single-shot -benchtime 1x timings on
# shared runners are noisy, so the default is a warning — set
# BENCH_STRICT=1 to make it fatal.
if [ -f "$out" ]; then
	noopbad=0
	for name in 'BenchmarkStatsOverhead/noop' 'BenchmarkReproAll/workers=1'; do
		base=$(sed -n "s|.*{\"name\": \"$name\", \"iterations\": [0-9]*, \"ns/op\": \([0-9.e+]*\)[,}].*|\1|p" "$out")
		# $1 is the bench name, with a -GOMAXPROCS suffix unless it is 1.
		cur=$(echo "$raw" | awk -v n="$name" '$1 == n || index($1, n "-") == 1 { print $3; exit }')
		if [ -z "$base" ] || [ -z "$cur" ]; then
			echo "noop-overhead guard: no baseline for $name, skipping" >&2
			continue
		fi
		awk -v n="$name" -v c="$cur" -v b="$base" 'BEGIN {
			printf "%s: %.0f ns/op vs baseline %.0f ns/op (ratio %.3f)\n", n, c, b, c / b
		}' >&2
		if awk -v c="$cur" -v b="$base" 'BEGIN { exit !(c > 1.02 * b) }'; then
			noopbad=1
		fi
	done
	if [ "$noopbad" = "1" ]; then
		if [ "${BENCH_STRICT:-0}" = "1" ]; then
			echo "FAIL: instrumentation-off hot path regressed past the 2% noop budget (BENCH_STRICT)" >&2
			exit 1
		fi
		echo "WARN: instrumentation-off hot path regressed past the 2% noop budget (set BENCH_STRICT=1 to fail)" >&2
	fi
fi

{
	echo '{'
	echo "  \"generated_by\": \"scripts/bench.sh\","
	echo "  \"go\": \"$(go env GOVERSION)\","
	echo "  \"cpus\": $(getconf _NPROCESSORS_ONLN)," # wall-clocks (esp. ReproAll workers=N) depend on this
	# One-off before/after notes that must survive regeneration live
	# here, not as hand-edited benchmark rows (which the next run of
	# this script would silently drop).
	echo '  "notes": ['
	echo '    "PR 3: trace IO moved from reflective binary.Read/Write to fixed 16-byte buffers; 200k-record before/after on the PR machine: write 10.0ms -> 1.27ms/op (320 -> 2527 MB/s), read 11.7ms -> 2.42ms/op (274 -> 1322 MB/s)",'
	echo '    "PR 5: BenchmarkDispatchOverhead prices the work-stealing dispatcher against the static shard plan at equal worker counts; on the 1-core PR machine: 45 units in 32.7s dispatched vs 30.8s static (~6%, loopback HTTP + 4-way oversubscription of one core — noise on multi-core)",'
	echo '    "PR 6: BenchmarkStatsOverhead prices the obs tracker layer on the sim hot path: noop (the default everyone pays) vs a recording tracker vs recording plus RNG draw accounting; interleaved A/B of BenchmarkReproAll/workers=1 on the 1-core PR machine: seed 28.5s/28.1s vs instrumented-noop 27.2s/29.1s — the noop path is within run-to-run noise (well under the 2% budget)",'
	echo '    "PR 7: engine core rewrite — flat 4-ary pointer-free event heap + slot-pooled callbacks (BenchmarkEventHeap old->new: 212->95 ns/op at depth 1k, 462->167 ns/op at depth 100k, 1->0 allocs/op), Agenda-streamed trace replay (peak heap depth ~12k -> tens), lazily cancelled deadline/spec/slice timers, pooled slice-event records, tombstoned thread lists, geometric histogram growth; BenchmarkReproAll/workers=1 on the 1-core PR machine: 30.78s -> 12.40s (2.48x cells/sec) with results/test and RESULTS.md byte-identical",'
	echo '    "PR 9: BenchmarkRenderFigures prices the figure pipeline downstream of the simulator — LoadDir(results/test) CSVs rendered to all SVGs; ~5ms for 19 figures / 131KB on the 1-core PR machine, i.e. negligible next to any cell simulation",'
	echo '    "PR 10: BenchmarkStatsOverhead/simtrace prices a live sim-domain tracer (every query span, slice, and controller decision captured); the noop row now also covers the tracing-off nil checks, and this script compares it (plus ReproAll/workers=1) against the committed baseline with a 2% budget before overwriting it"'
	echo '  ],'
	echo '  "benchmarks": ['
	printf '%s\n%s\n%s\n' "$raw" "$heapraw" "$chromeraw" | awk '
		/^Benchmark/ {
			n = split($0, f, /[ \t]+/)
			printf "%s    {\"name\": \"%s\", \"iterations\": %s", sep, f[1], f[2]
			for (i = 3; i + 1 <= n; i += 2) {
				unit = f[i+1]
				gsub(/[^A-Za-z0-9%\/_.-]/, "", unit)
				printf ", \"%s\": %s", unit, f[i]
			}
			printf "}"
			sep = ",\n"
		}
		END { print "" }
	'
	echo '  ]'
	echo '}'
} >"$out"
echo "wrote $out" >&2
