#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
#
#   bash servebench/run.sh --workload hit-relabeled --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The binary, the Go build cache and every
# other build output go to .bench_build/ in the checkout, so the build
# writes nothing outside it and needs no network. The build fails (and
# this script exits non-zero) when the repository sources are missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOFLAGS="-mod=mod -buildvcs=false" GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
	GOENV=off GOTELEMETRY=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
