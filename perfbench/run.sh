#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root
# (the directory above this script); every argument is passed to the
# benchmark binary:
#
#   bash perfbench/run.sh --workload smtp32_serial --seed 42 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the repository root, so a run reads and writes nothing
# outside the checkout. The build fails (and the script exits non-zero)
# when the simulator's sources are missing.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

# The binary reports the git revision go build stamps into it. Stamping is
# left off unless the checkout root is itself a git repository, so the
# build never consults a repository that merely encloses the checkout.
vcs=false
if [ -e "$root/.git" ]; then
	vcs=auto
fi

(cd "$root/perfbench" && go build -buildvcs="$vcs" -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
