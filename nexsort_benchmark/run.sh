#!/usr/bin/env bash
# Build xsort and nexsort_benchmark from this checkout into one target
# directory (CARGO_TARGET_DIR, else ./target), then run the benchmark from
# the checkout root with the given arguments. Build output goes to stderr.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cd "$root"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p nexsort-cli --bin xsort >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/nexsort_benchmark" "$@"
