#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload kv-a-tight --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

exec "$out/perfbench" --trace-dir "$out" "$@"
