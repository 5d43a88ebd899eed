#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark package from
# source (a no-op when fresh), then runs `bench` (end-to-end metrics) or,
# for `--trace 1`, `trace` (per-layer metrics; the only bin with the
# counting allocator). All arguments pass through, so
# `bash benchmark/run.sh compare A.jsonl B.jsonl` reaches `bench compare`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bins >&2
bin=bench
prev=
for arg in "$@"; do
  if [[ $prev == --trace && $arg == 1 ]]; then
    bin=trace
  fi
  prev=$arg
done
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
