#!/usr/bin/env bash
# Builds the benchmark (sharing the root workspace's target/ so the engine
# crates compile once), runs every workload (untraced window, then traced
# pass, one child process each) and writes benchmark/out/result.json
# stamped with where the numbers came from.
#
#   benchmark/run.sh                      # seed 1993, 10 s windows
#   benchmark/run.sh --seed 2026 --runs 3 # any option of `all` passes through
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml"

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
  commit="$commit+dirty"
fi

exec "$CARGO_TARGET_DIR/release/rdb-benchmark" all \
  --json "$here/out/result.json" \
  --out "$here/out" \
  --stamp "commit=$commit" \
  --stamp "rustc=$(rustc -V)" \
  --stamp "nproc=$(nproc)" \
  --stamp "date=$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  "$@"
