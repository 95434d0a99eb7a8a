#!/usr/bin/env bash
# Full verification gate: formatting, lints, and the tier-1 test suite.
# Everything runs offline against the vendored-free workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> cargo build --benches"
cargo build --benches --workspace --quiet

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Every campaign mode, in order, stopping at the first failure. Each
# exits nonzero on a contract violation: a panic, silent corruption, an
# untyped failure, a same-seed double run that diverged, or a mode's
# own verdict (scrub showing no benefit, the naive overload row not
# staying congested or the protected row not recovering, a durability
# oracle breach, a restore that diverges from its source). The traffic,
# overload, chaos and checkpoint modes also write BENCH_<mode>.json and
# fail on a >20% throughput regression against the previous report of
# the same workload size. Failing chaos plans are shrunk to minimal
# CHAOS_repro_*.json reproducers.
for mode in "" --media --failover --power --traffic --overload --chaos --checkpoint; do
  echo "==> faults${mode:+ $mode} --smoke"
  cargo run -p contutto-bench --release --bin faults --quiet -- $mode --smoke
done

echo "==> mlp pipeline benchmark (smoke)"
# Writes BENCH_pipeline.json; fails on broken determinism, a depth-16
# speedup under 4x, or a >20% simulated-throughput regression vs the
# last report of the same depth and read count.
cargo run -p contutto-bench --release --bin pipeline --quiet -- --smoke

echo "==> benchmark package tests"
# The benchmark package sits outside the workspace, so --workspace
# never builds or tests it.
cargo test --offline --manifest-path benchmark/Cargo.toml -q

echo "verify: all gates passed"
