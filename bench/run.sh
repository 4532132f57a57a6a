#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Build cache, temporary files and the
# toolchain's own bookkeeping are kept inside the checkout as well.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$root/bench"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOFLAGS=-mod=mod \
		go build -o "$build/autobias-bench" . >&2
)
cd "$root"
exec "$build/autobias-bench" "$@"
