#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing the
# arguments through:
#
#   bash perfbench/run.sh --workload cifar_ttt_w1 --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go to
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside the
# checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/gocache" "$out/tmp"
# Keep every file the go command writes (build cache, temporaries,
# telemetry counters under the user config dir) inside the checkout.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
