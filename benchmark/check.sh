#!/usr/bin/env bash
# Gate for the benchmark crate itself. Run from anywhere.
#
#   benchmark/check.sh            fmt, clippy, tests, then the quick smoke
#   benchmark/check.sh --quick    the quick smoke only: one second of every
#                                 workload, traced; every named metric must be
#                                 reported and finite and no op may fail
#   benchmark/check.sh agree      every workload twice at full length; exits
#                                 non-zero if an end-to-end metric differs
#                                 between the two sets by more than its bound
#                                 (exact metrics: at all). Takes ~5 minutes.
#
# Tests run with --release so they share the dependency build with the
# benchmark binary; extra arguments (e.g. --seed 7) go to the binary.
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-all}"
[ $# -gt 0 ] && shift
bin() { cargo run --release --offline --quiet -- "$@"; }

case "$mode" in
    --quick) bin quick "$@" ;;
    agree) bin agree "$@" ;;
    all)
        cargo fmt --check
        cargo clippy --release --offline --all-targets -- -D warnings
        cargo test --release --offline
        bin quick "$@"
        ;;
    *)
        echo "usage: check.sh [--quick | agree] [options for the binary]" >&2
        exit 64
        ;;
esac
