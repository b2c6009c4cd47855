#!/usr/bin/env bash
# Builds pbxd and the benchmark driver from this checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload relay-g711 --seed 1 --seconds 30 --trace 0
#
# Every build artefact, the Go build cache and Go's own config live
# under .bench_build/ in the checkout, so a run reads and writes nothing
# outside it. The last line of standard output is the JSON result.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pbxd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/pbxd and perfbench/)" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -o "$out/pbxd" ./cmd/pbxd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -pbxd "$out/pbxd" -out "$out" "$@"
