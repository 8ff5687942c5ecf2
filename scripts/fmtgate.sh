#!/bin/sh
# fmtgate.sh — fail CI when a Go file is not gofmt-formatted, so
# formatting drift never rides along in an unrelated diff. Build output
# under .bench_build/ is skipped.
set -eu
cd "$(dirname "$0")/.."

found=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)

if [ -n "$found" ]; then
	echo "fmtgate: files need gofmt (run gofmt -w on them):" >&2
	echo "$found" >&2
	exit 1
fi
echo "fmtgate: every Go file is gofmt-formatted"
