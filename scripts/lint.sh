#!/usr/bin/env sh
# scripts/lint.sh — build and run the perfiso-lint determinism linter
# over the whole module and the nested perfbench module, exactly as
# CI's lint job and the nightly run invoke it (no make required). Any
# findings in either fail the script.
#
# Wall time for the build and the lint pass is reported on stderr so
# the CI step's budget is visible in the logs.
#
#   scripts/lint.sh            # lint ./... in both modules
#   scripts/lint.sh -json      # machine-readable findings
set -eu

cd "$(dirname "$0")/.."

bin="${PERFISO_LINT_BIN:-$(mktemp -d)/perfiso-lint}"

build_start=$(date +%s)
go build -o "$bin" ./cmd/perfiso-lint
build_end=$(date +%s)
echo "perfiso-lint: built in $((build_end - build_start))s" >&2

lint_start=$(date +%s)
status=0
"$bin" "$@" || status=$?
# perfbench is its own module, so the root ./... never reaches it; it
# shares the root allowlist.
"$bin" -dir perfbench -conf lint.conf "$@" || status=$?
lint_end=$(date +%s)
echo "perfiso-lint: linted in $((lint_end - lint_start))s" >&2

exit "$status"
