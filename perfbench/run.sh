#!/usr/bin/env bash
# Builds gcd and the benchmark from source inside the checkout, then runs
# one workload:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# root of the checkout (Go caches, binaries, generated datasets).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/gcd" || ! -d "$root/internal" ]]; then
  echo "perfbench: no GraphCache sources (go.mod, cmd/gcd, internal/) at $root" >&2
  exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/bin" "$out/tmp" "$out/home" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root" && go build -buildvcs=false -o "$out/bin/gcd" ./cmd/gcd)
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -gcd "$out/bin/gcd" -work "$out/work" \
  -digests "$root/perfbench/digests.json" "$@"
