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

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Every campaign mode, in order, stopping at the first failure. Each
# exits nonzero on a contract violation: a panic, silent corruption, an
# untyped failure, a same-seed double run that diverged, or a mode's
# own verdict (scrub showing no benefit, the naive overload row not
# staying congested or the protected row not recovering, a durability
# oracle breach, a restore that diverges from its source). Failing
# chaos plans are shrunk to minimal CHAOS_repro_*.json reproducers. The
# smoke campaigns' simulated results are pinned exactly by
# tests/campaign_counters.rs (run above); wall time is gated by the
# benchmark package, not here.
for mode in "" --media --failover --power --traffic --overload --chaos --checkpoint; do
  echo "==> faults${mode:+ $mode} --smoke"
  cargo run -p contutto-bench --release --bin faults --quiet -- $mode --smoke
done

echo "==> mlp pipeline benchmark (smoke)"
# Fails on broken determinism or a depth-16 simulated speedup under 4x.
cargo run -p contutto-bench --release --bin pipeline --quiet -- --smoke

echo "==> benchmark package tests"
# The benchmark package sits outside the workspace, so --workspace
# never builds or tests it.
cargo test --offline --manifest-path benchmark/Cargo.toml -q

echo "verify: all gates passed"
