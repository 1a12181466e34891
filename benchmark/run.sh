#!/usr/bin/env bash
# The one command: build the flowzip CLI and the harness from source,
# then measure. Arguments go to `flowzip-benchmark run` (see README.md):
#   benchmark/run.sh                      all four workloads, untraced then traced
#   benchmark/run.sh --workload web_dense --seed 7 --seconds 15 --trace 0
#   benchmark/run.sh --quick              smoke mode, never a baseline
set -euo pipefail
cd "$(dirname "$0")/.."

# With CARGO_TARGET_DIR set (the driver does) both builds land there;
# otherwise each package keeps its own target directory.
cli_target=${CARGO_TARGET_DIR:-target}
harness_target=${CARGO_TARGET_DIR:-benchmark/target}

cargo build --release --offline --manifest-path Cargo.toml --bin flowzip >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

exec "$harness_target/release/flowzip-benchmark" run \
    --flowzip "$cli_target/release/flowzip" --out benchmark/out "$@"
