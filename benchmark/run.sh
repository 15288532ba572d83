#!/usr/bin/env bash
# One command for the whole benchmark: build `ssj` (root workspace) and the
# benchmark binary (this directory's own workspace), both release and
# offline, then hand every argument to the benchmark binary.
#
#   benchmark/run.sh                      every workload, every metric
#   benchmark/run.sh --smoke              10 % streams, one repetition, < 30 s
#   benchmark/run.sh --only W --reps N    one workload, N repetitions
#   benchmark/run.sh --seed N             regenerate everything for seed N
#   benchmark/run.sh --selfcheck          two runs compared against the bounds
#   benchmark/run.sh --pin                rewrite expected.json (seed 1)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one measured run, result JSON last
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Both builds share one target directory: the caller's, or the root's.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to stderr; stdout stays the benchmark's own.
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p ssj-cli >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

git_sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$target/release/ssj-benchmark" \
    --dir "$here" --ssj "$target/release/ssj" \
    --rustc "$(rustc --version)" --git "$git_sha" "$@"
