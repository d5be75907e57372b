#!/usr/bin/env bash
# The repository's CI gate, runnable locally with no network access.
#
# The workspace has zero external crates, so everything below works
# against an empty Cargo registry — `--offline` both proves that and
# keeps CI hermetic. Order: cheapest static checks first, then the
# tier-1 build+test gate over the whole workspace.
set -euo pipefail
cd "$(dirname "$0")"

# Every smoke below writes into one scratch directory, removed on exit.
smoke="$(mktemp -d -t ulayer-smoke.XXXXXX)"
trap 'rm -rf "$smoke"' EXIT
smoke_trace="$smoke/trace.json"
smoke_quick="$smoke/quick.txt"
smoke_measure="$smoke/measure.json"
smoke_measure_out="$smoke/measure.txt"
smoke_fleet="$smoke/fleet.json"
smoke_mesh="$smoke/mesh.json"
smoke_plan="$smoke/plan.json"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> sibling budget (wrapper-suffixed pub fns under crates/*/src)"
# Features used to arrive as `_with_faults` / `_over` / `_detailed`
# siblings of the function they extend instead of as its arguments. The
# three that remain each have callers needing both forms (`plan_with_drift`,
# `execute_plan_with_faults`, `run_fleet_with_faults`); the recovery
# replay became a field of the sequential backend. Like a panic budget,
# this number only goes down: a new special case becomes an argument of
# the one real path.
sibling_budget=3
siblings="$(grep -rhoE 'pub fn [a-z0-9_]+' crates/*/src | sort -u | grep -cE \
  '_(with_(faults|stats|drift|tables|passes|recovery)|over|over_detailed|detailed_over|inner)$' || true)"
if [ "$siblings" -gt "$sibling_budget" ]; then
  echo "ci.sh: $siblings wrapper-suffixed pub fns exceed the budget of $sibling_budget" >&2
  exit 1
fi

echo "==> surface budget (pub fn and pub mod lines under crates/*/src)"
# Each crate's public surface is its root `pub use` list: modules are
# private, `#![warn(unreachable_pub)]` in every lib.rs narrows what no
# root re-export or public signature reaches, and rustc's dead_code lint
# then sees everything else. Like the sibling budget, these numbers only
# go down: a new public function replaces one, or something no other
# crate names drops to `pub(crate)`.
pub_fn_budget=402
pub_mod_budget=0
pub_fns="$(grep -rhE '^\s*pub fn ' crates/*/src | wc -l || true)"
pub_mods="$(grep -rhE '^\s*pub mod ' crates/*/src | wc -l || true)"
if [ "$pub_fns" -gt "$pub_fn_budget" ] || [ "$pub_mods" -gt "$pub_mod_budget" ]; then
  echo "ci.sh: $pub_fns pub fns / $pub_mods pub mods exceed the budgets of" \
    "$pub_fn_budget / $pub_mod_budget" >&2
  exit 1
fi

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
# The root manifest's default-members cover the workspace, so this is
# also what a bare `cargo test -q` (Tier-1) runs.
cargo test -q --offline --workspace

echo "==> repro trace smoke (exports + validates a Chrome trace)"
# The trace subcommand re-reads the file it wrote and runs the in-repo
# Chrome trace-event validator, exiting non-zero on any violation.
cargo run --release --offline -p ubench --bin repro -- \
  trace squeezenet --miniature "--trace-out=$smoke_trace" >/dev/null
test -s "$smoke_trace"

echo "==> vision_pipeline example (a 30-frame clip through serve_stream)"
# No other step runs an example; this one serves its clip through the
# serving core and exits non-zero if the report's invariants fail.
cargo run --release --offline --example vision_pipeline >/dev/null

echo "==> in-place join equivalence property (zoo x dtype, split + unsplit)"
# Every plan joins its eligible concats in place; each must evaluate to
# the reference forward pass: bit-identical QUInt8, <= 2 ULP for f32/F16,
# with and without 0.37:0.63 channel splits, on every model-zoo net.
cargo test -q --offline -p uruntime --test passes_equivalence >/dev/null

echo "==> repro faults smoke (resilient execution under injected faults)"
# Deterministic seed; the subcommand exits non-zero unless the run
# completes with bit-identical recovered outputs, and (for flaky-gpu)
# at least one watchdog retry and one fallback re-execution.
cargo run --release --offline -p ubench --bin repro -- \
  faults squeezenet --scenario=flaky-gpu --seed=42 --miniature >/dev/null

echo "==> chrome trace parser fuzz property (mutated/truncated/random input)"
# The std-only JSON parser must return Err — never panic, overflow, or
# loop — on arbitrary bytes. Seeded, so failures replay exactly.
cargo test -q --offline -p simcore --test chrome_fuzz >/dev/null

echo "==> repro serve smoke (bursty overload, bounded queue, exact accounting)"
# Seeded bursty arrivals at 2x the service rate; the subcommand exits
# non-zero if the bounded queue exceeds its capacity or offered frames
# do not partition exactly into completed + degraded + shed.
cargo run --release --offline -p ubench --bin repro -- \
  serve squeezenet --arrivals=bursty --seed=42 --frames=64 --miniature >/dev/null

echo "==> blocked-GEMM equivalence properties (blocked == naive, bit-exact f32/F16/QUInt8)"
# Seeded property tests: the blocked f32, F16 and QUInt8 kernels are
# bit-identical to the naive oracle loops at every K depth, and repeated
# convolutions never grow the per-thread scratch arena.
cargo test -q --offline -p ukernels --test blocked_props >/dev/null

echo "==> kernels, tensor and exec crates: warnings-as-errors build + clippy"
# The SIMD module of crates/kernels and the requantizer and slice
# converters of crates/tensor carry unsafe target_feature code, and
# crates/exec erases the lifetime of the layer batch its pools borrow;
# hold the three crates to the strictest static bar on their own,
# independent of workspace flags: every `unsafe` block states why it is
# sound.
RUSTFLAGS="-D warnings" cargo build -q --offline -p ukernels -p utensor
cargo clippy -q --offline -p ukernels --all-targets -- -D warnings \
  -D clippy::undocumented_unsafe_blocks
cargo clippy -q --offline -p utensor --all-targets -- -D warnings \
  -D clippy::undocumented_unsafe_blocks
cargo clippy -q --offline -p uexec --all-targets -- -D warnings \
  -D clippy::undocumented_unsafe_blocks

echo "==> repro measure smoke (worker pools + predictor calibration)"
# Real-thread execution of the miniature net on two workers per pool;
# writes a measurement document. Wall-clock values vary by host, so the
# timings are not gated (host time is the benchmark crate's job). Its
# `kernel path: auto (resolved: T)` line names the host's widest tier,
# which bounds the kernel-path passes below.
cargo run --release --offline -p ubench --bin repro -- \
  measure squeezenet --miniature --threads=2 --repeat=1 --kernel-path=auto \
  "--out=$smoke_measure" >"$smoke_measure_out"
test -s "$smoke_measure"
host_tier="$(sed -n 's/^kernel path: auto (resolved: \([a-z0-9]*\)).*/\1/p' "$smoke_measure_out")"
test -n "$host_tier"

# Each pass caps every thread of a test run (test threads, the
# sequential evaluator, pool workers) at one tier, from the scalar tiles
# up to the host's widest, so a host runs the bodies of every tier it
# has: the full differential table (gemm/depthwise/pointwise x dtype x
# thread count, pooling, the slice converters) against the oracles of
# tests/common, the pooling property against the windowed loop, the
# whole-plane depthwise property against im2col, the blocked-GEMM,
# conv-pack and QUInt8 zero-point properties against the naive GEMM, the
# GEMM edge pins (in-place weight tails, junk columns) and the golden
# vectors. (The cooperative frames' network hashes, `store_pins`, run
# every tier themselves in the workspace test run above.) The equivalence
# target also fails if UKERNELS_KERNEL_PATH is not a valid choice, so a
# misspelled pass cannot quietly run the widest tier.
for kernel_path in scalar avx2 avx512 avx512fp16; do
  echo "==> kernel-path equivalence table: $kernel_path"
  UKERNELS_KERNEL_PATH=$kernel_path cargo test -q --offline -p ukernels \
    --test equivalence --test direct_conv_props --test pool_props \
    --test depthwise_props --test blocked_props --test conv_pack_props \
    --test quint8_zero_points --test blocked_edges --test golden >/dev/null
  if [ "$kernel_path" = "$host_tier" ]; then
    break
  fi
done

echo "==> benchmark quick smoke (one second of each workload, every op output-checked) + exact record"
# The standalone benchmark crate (own manifest and lock file, path
# dependencies only). Every exec frame is compared with its reference —
# single-pool QUInt8 bit for bit against the sequential evaluator — so a
# kernel change that breaks bit-equality fails here, not in the next
# benchmark run. Needs two cores, like the benchmark itself.
#
# Host timings are not gated, but the noise-free half of the output is:
# the workload headings, every simulated-domain line, the exact
# partitioner / plan-cache counts and the fleet's sim_digest must equal
# the checked-in record for seed 1 (ci/bench_exact.expected), so a
# refactor that moves simulated behaviour fails here. A change that
# means to move one of them regenerates the record with the same filter
# and says so.
benchmark/check.sh --quick >"$smoke_quick"
awk '/^== / || / simulated *$/ || (/^   ulayer\./ && / - *$/) || /^   sim_digest/' \
  "$smoke_quick" | sed 's/ *$//' | diff -u ci/bench_exact.expected - || {
  echo "ci.sh: simulated / exact benchmark lines differ from ci/bench_exact.expected" >&2
  exit 1
}

echo "==> repro fleet smoke (64-device GPU-loss storm + order-fuzz gate)"
# Seeded fleet of 64 mixed-SoC instances under a correlated GPU-loss
# storm. The subcommand exits non-zero if the invariant audit fails
# (exact offered = completed + degraded + shed, one shared weight
# allocation, occupancy == executed) or if any shuffled same-timestamp
# event order produces a report that differs from FIFO.
cargo run --release --offline -p ubench --bin repro -- \
  fleet squeezenet --miniature --devices=64 --frames=16 --storm=gpu-loss \
  --seed=42 --fuzz-orders=2 "--out=$smoke_fleet" >/dev/null
test -s "$smoke_fleet"

echo "==> repro mesh smoke (4-node partition storm + surviving-subset degradation)"
# Seeded 4-node MCU mesh with the middle link cut mid-stream. The
# subcommand exits non-zero if the frame accounting leaks (exact
# offered = completed + degraded + shed), if any rung's output diverges
# from the single-device QUInt8 reference, or if the partition
# bookkeeping is inconsistent.
cargo run --release --offline -p ubench --bin repro -- \
  mesh --nodes=4 --frames=24 --link-fault=partition --seed=42 \
  "--out=$smoke_mesh" >/dev/null
test -s "$smoke_mesh"

echo "==> incremental-vs-scratch planning equivalence gate (zoo x SoCs x mesh x drift)"
# An Exact-policy PlannerSession must replan byte-identically to a
# from-scratch plan_with_drift under seeded drift/fault walks, on every
# zoo net, both evaluated SoCs, the NPU variant, and the MCU mesh — and
# the QUInt8 outputs of the cached plan must match the scratch plan's.
cargo test -q --offline -p ulayer --test plan_equivalence >/dev/null

echo "==> repro plan smoke (drift-keyed cache hit rate + equivalence)"
# Seeded calm stream over both SoCs. The subcommand exits non-zero if
# any frame's incremental replan diverges from the scratch planner or
# the cache hit rate falls below the gate.
cargo run --release --offline -p ubench --bin repro -- \
  plan squeezenet --miniature --frames=64 --seed=42 --drift=calm \
  --min-hit-rate=0.9 "--out=$smoke_plan" >/dev/null
test -s "$smoke_plan"

echo "==> repro fleet plan-cache gate (calm 64-device fleet, hit rate >= 90%)"
# With no storm the per-instance drift keys settle, so the modeled plan
# cache must serve at least 90% of frames from cache; the subcommand
# exits non-zero below the gate or on any planner accounting leak.
cargo run --release --offline -p ubench --bin repro -- \
  fleet squeezenet --miniature --devices=64 --frames=32 --storm=none \
  --seed=42 --plan-cache=on --min-hit-rate=0.9 >/dev/null

echo "==> repro CLI rejection smoke (typed errors exit 2)"
# The hardened parser must refuse unknown flags and malformed values on
# every subcommand with exit code 2, never a panic or a silent default.
# `--json` and the figures parse through the same command table: a stray
# flag is not an output directory and a figure takes no network.
for bad_args in "fleet --bogus-flag" "fleet --storm=hurricane" \
  "serve --queue=0" "measure --kernel-path=warp" "fleet resnet99" \
  "mesh --link-fault=cosmic-ray" "mesh --nodes=1" "mesh squeezenet" \
  "plan --drift=maelstrom" "plan --frames=0" "plan resnet99" \
  "fleet --plan-cache=maybe" "fleet --min-hit-rate=-0.5" \
  "measure --kernel-path=simd" "--json --bogus" "fig5 --bogus" \
  "fig5 squeezenet"; do
  status=0
  cargo run --release --offline -q -p ubench --bin repro -- \
    $bad_args >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "ci.sh: repro $bad_args exited $status, not 2" >&2
    exit 1
  fi
done

echo "ci.sh: all green"
