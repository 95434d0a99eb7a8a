#!/usr/bin/env bash
# Behaviour diff of the working tree against a git revision.
#
#   scripts/smoke_diff.sh [REV]      # REV defaults to HEAD
#
# Builds the campaign binaries and the examples of both trees offline,
# runs every `faults --smoke` mode, `pipeline --smoke`, `tables` and
# every example (`examples/*.rs`) in each, masks the wall-clock figures
# (plans/sec, snapshot and restore rates, sweep seconds, prefix-reuse
# speedup, pipeline's reads/wall-s) and diffs the outputs, exit status
# included. Every run gets its own scratch
# directory, so the BENCH_*.json gate of one tree never sees the
# other's report. Exits 1 on any difference.
#
# REV is exported with `git archive` into a temporary directory (and
# built there, cold): nothing is registered in the repository's .git.
set -euo pipefail
cd "$(dirname "$0")/.."

rev=${1:-HEAD}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"

build() { # <tree> <target dir>
  cargo build --release --offline --quiet -p contutto-bench --bins \
    --manifest-path "$1/Cargo.toml" --target-dir "$2"
  cargo build --release --offline --quiet -p contutto-system --examples \
    --manifest-path "$1/Cargo.toml" --target-dir "$2"
}
echo "==> building the working tree"
build . target
echo "==> building $rev"
build "$tmp/base" "$tmp/base/target"

mask() {
  sed -E \
    -e 's/[0-9.]+ plans\/sec/# plans\/sec/' \
    -e 's/[0-9.]+ (snapshots|restores)\/sec/# \1\/sec/' \
    -e 's/^(power sweep [a-z]+) +[0-9.]+ s /\1 # s /' \
    -e 's/[0-9.]+x wall clock/#x wall clock/' \
    -e 's/^( +[0-9]+ +[0-9]+ +[0-9.]+ +[0-9.]+) +[0-9]+ (0x[0-9a-f]+)$/\1 # \2/'
}

run() { # <name> <binary dir> <binary> [args...]
  local name=$1 bin=$2/$3 dir status=0
  shift 3
  dir=$(mktemp -d "$tmp/run.XXXX")
  (cd "$dir" && "$bin" "$@") >"$dir/out" 2>&1 || status=$?
  { mask <"$dir/out"; echo "exit status $status"; } >"$name"
}

for side in base work; do
  if [ "$side" = base ]; then bins=$tmp/base/target/release; else bins=$PWD/target/release; fi
  out=$tmp/out/$side
  mkdir -p "$out"
  echo "==> running the smoke campaigns ($side)"
  for mode in "" --media --failover --power --traffic --overload --chaos --checkpoint; do
    # shellcheck disable=SC2086 # an empty mode passes no argument
    run "$out/faults${mode:-}" "$bins" faults $mode --smoke
  done
  run "$out/pipeline" "$bins" pipeline --smoke
  run "$out/tables" "$bins" tables
  echo "==> running the examples ($side)"
  for ex in examples/*.rs; do
    ex=$(basename "$ex" .rs)
    run "$out/example-$ex" "$bins/examples" "$ex"
  done
done

if diff -ru "$tmp/out/base" "$tmp/out/work"; then
  echo "smoke_diff: no difference against $rev"
else
  echo "smoke_diff: outputs differ from $rev" >&2
  exit 1
fi
