//! Regenerates every table and figure of the μLayer paper.
//!
//! ```text
//! repro [table1|fig5|fig6|fig8|fig10|fig12|fig16|fig17|fig18|npu|predictor|sweeps|all]
//! repro --json [DIR] [--with-fig10]
//! repro trace [net] [--miniature] [--trace-out=FILE]
//! repro faults [net] [--scenario=throttle|flaky-gpu|gpu-loss] [--seed=N] [--miniature]
//! repro serve [net] [--arrivals=fixed|bursty|poisson] [--rate=FPS] [--deadline=MS]
//!             [--queue=N] [--frames=N] [--seed=N] [--miniature] [--trace-out=FILE]
//! repro measure [net] [--miniature] [--threads=N] [--repeat=N]
//!               [--kernel-path=auto|scalar|avx2|avx512|avx512fp16] [--out=FILE]
//! repro fleet [net] [--devices=N] [--frames=N] [--seed=N] [--miniature]
//!             [--storm=none|throttle-wave|gpu-loss|flaky-epidemic|link-partition]
//!             [--arrivals=fixed|bursty|poisson] [--rate=FPS] [--deadline=MS]
//!             [--queue=N] [--fuzz-orders=N] [--plan-cache=on|off]
//!             [--min-hit-rate=R] [--out=FILE]
//! repro mesh [--nodes=N] [--frames=N] [--seed=N]
//!            [--link-fault=none|drop|delay|jitter|flap|partition]
//!            [--arrivals=fixed|bursty|poisson] [--rate=FPS] [--deadline=MS]
//!            [--queue=N] [--out=FILE]
//! repro plan [net] [--frames=N] [--seed=N] [--miniature]
//!            [--drift=calm|throttle|loss|oscillate] [--min-hit-rate=R] [--out=FILE]
//! ```
//!
//! `net` is one of `vgg16|vgg|alexnet|squeezenet|googlenet|mobilenet`.
//! Each figure prints paper-style rows; `all` (the default) prints every
//! figure. Latency/energy figures run on the simulated Exynos 7420/7880
//! SoCs and complete in seconds; `fig10` trains two classifiers from
//! scratch and takes a few minutes. `predictor` validates the latency
//! predictor on held-out zoo layers and `sweeps` runs two design-choice
//! ablations beyond the paper.
//!
//! `--json` writes each figure's data as `DIR/<figure>.json` (default
//! `repro-json`), for plotting outside this repository; `fig10` only
//! with `--with-fig10`.
//!
//! `trace` runs the μLayer schedule for one network, prints its overhead
//! attribution on both SoCs, and writes the high-end SoC's schedule as a
//! Chrome trace-event JSON file (loadable in `chrome://tracing` or
//! Perfetto).
//!
//! `fleet` simulates a mixed-SoC device fleet under a correlated fault
//! storm and checks the fleet invariants and the schedule-order fuzz
//! gate.
//!
//! `mesh` serves a RAM-limited MCU-style mesh through the partition-
//! tolerant degradation ladder under a seeded link-fault scenario,
//! and checks the exact frame accounting and the QUInt8 bit-identity
//! gate.
//!
//! `measure`, `fleet`, `mesh` and `plan` write a machine-readable JSON
//! document to `--out=FILE`; without the flag nothing is written.
//!
//! Every command is a row of [`ubench::COMMANDS`] with its own flag
//! table: unknown arguments and malformed `--key=value` pairs are typed
//! errors with exit code 2; a failed check exits 1.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ubench::repro(&args));
}
