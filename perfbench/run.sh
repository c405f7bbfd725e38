#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload snap-bftpd --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the trace files stay in the checkout,
# under $CARGO_TARGET_DIR (default .bench_build). See perfbench/README.md.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home" "$out/tmp"

# Keep every file the toolchain writes inside the checkout, and never let
# it fetch anything: the benchmark needs no module outside the repository.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .)

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
cd "$root"
exec "$out/perfbench" --trace-dir "$out" --commit "$commit" "$@"
