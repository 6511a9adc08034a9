#!/usr/bin/env bash
# Tier-1 verification, fully offline: lint, build, test, and regenerate
# the performance baseline. The baseline binary doubles as the
# parallelism gate — it exits non-zero if any thread count changes a
# report byte, if any report differs from the rebuild-per-experiment
# reference engine, or if the 2-worker warm run misses its speedup
# target on a multi-core host — so `set -e` makes this script fail
# with it.
#
# The baseline purges the trace cache under results/cache/ itself before
# anything reads it, so its cold-start timing always starts from an empty
# disk.
#
# Usage: scripts/verify.sh [--smoke]
#   --smoke   stop after the smoke tier (fmt, lint, rustdoc, build,
#             batched-kernel equivalence, chaos + golden suites) — the
#             fast early signal;
#             skips the full test run and the baseline
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --offline (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# Dangling or private intra-doc links fail here, e.g. a link left behind
# when the item it names is deleted.
echo "== cargo doc --offline (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace --all-targets

# Smoke tier: the batched-kernel equivalence suite (source-batched sweep
# byte-identical to the retained per-pair reference) plus the tiny-scale
# end-to-end suites — the chaos suite (every fault scenario through the
# whole pipeline) and the golden snapshots (byte-level replay of committed
# reports, fault sweep included). Fails fast before the full test run and
# baseline.
echo "== smoke: batched-kernel equivalence =="
cargo test -q --offline -p detour --test batched_kernel

echo "== smoke: chaos + golden report suites =="
cargo test -q --offline -p detour --test chaos --test golden_reports

if [[ "$SMOKE" == 1 ]]; then
  echo "verify: OK (smoke tier)"
  exit 0
fi

echo "== cargo test --offline =="
cargo test -q --offline --workspace

# perfbench/ is a standalone package that drives the crates through their
# public API; its smoke test fails here when an API change breaks it.
echo "== perfbench smoke test =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The baseline binary writes its one report — the detour-obs-v1 snapshot
# of every span, counter and gauge it recorded — to BENCH_baseline.json
# and prints the same report as a table on stderr; the obscheck gate below
# validates its names against the committed manifest.
echo "== baseline (artifact store + thread-scaling + byte-identity gates) =="
cargo run --release --offline -q -p detour-bench --bin baseline -- BENCH_baseline.json

echo "== obs schema gate (BENCH_baseline.json vs scripts/obs_manifest.txt) =="
cargo run --release --offline -q -p detour-bench --bin obscheck -- \
  BENCH_baseline.json scripts/obs_manifest.txt

echo "verify: OK"
