#!/usr/bin/env bash
# Builds isegend and the benchmark program from this checkout, then runs one
# benchmark pass. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-kernels --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache, the go command's config, binaries,
# per-run store directories) stays under .perfbench/ in the repository root.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/isegend" ]]; then
	echo "perfbench: run from the repository root: no go.mod or cmd/isegend in $root" >&2
	exit 2
fi
out="$root/.perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry" "$out/runs"
# With telemetry on, the first go command in a fresh config directory forks a
# detached upload process that outlives this script; turn it off before any
# go command runs.
printf 'off' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/isegend" ./cmd/isegend
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -isegend "$out/isegend" -workdir "$out/runs" "$@"
