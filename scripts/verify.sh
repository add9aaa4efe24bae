#!/usr/bin/env bash
# Tier-1 verification: the repo must build and test clean, fully offline.
#
#   scripts/verify.sh          # build (offline) + release build + segbench check
#                              # + full test suite
#
# The --offline build is the dependency-trim guard: the workspace must
# compile with no registry access and no vendored third-party crates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --offline =="
cargo build --offline

echo "== cargo build --release =="
cargo build --release

echo "== cargo check segbench (it calls the engine API) =="
cargo check --offline --manifest-path segbench/Cargo.toml --all-targets

echo "== cargo test --workspace =="
cargo test --workspace -q

echo "== fuzz smoke (10k inputs) =="
cargo test --release -q --test fuzz_differential -- --ignored

echo "== reference-simulator regressions (release, ignored) =="
cargo test --release -q -p segbus-rtl -- --ignored

echo "== placement grid goldens (release, ignored) =="
cargo test --release -q -p segbus-place -- --ignored

echo "verify: OK"
