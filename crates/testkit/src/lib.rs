//! Hermetic verification toolkit for the μLayer reproduction.
//!
//! The workspace's correctness story (DESIGN.md §6) rests on numerical
//! invariants — channel-wise split/merge must be lossless under QUInt8
//! (PAPER §3.2), mixed QUInt8/F16 execution must stay inside the linear
//! quantization error envelope (§4) — so the test suite must run
//! *everywhere*, including offline and sandboxed environments with no
//! cargo registry. This crate replaces the external dependencies the
//! workspace's tests ever had (`rand`, `proptest`) with small,
//! documented, in-repo equivalents:
//!
//! - [`Rng`] — a seedable xoshiro256** PRNG (seeded through SplitMix64)
//!   with the `gen_range`/fill/shuffle surface the library crates need
//!   for synthetic weights and datasets, plus the [`fnv1a`] hash the pin
//!   tests fold outputs with. Deterministic in the seed, stable across
//!   platforms and Rust versions (unlike `StdRng`, whose algorithm is
//!   explicitly unspecified).
//! - [`props!`] — a minimal property-testing runner: range/choice/vector
//!   strategies ([`bools`], [`select`], [`vec_of`]), deterministic case
//!   generation, counterexample shrinking, and
//!   `TESTKIT_SEED`/`TESTKIT_CASES` environment overrides. [`run`],
//!   [`PropConfig`], [`CaseError`] and [`TestCaseResult`] are public for
//!   the macros' expansion.
//! - [`check_f32`] — load/store/check for committed golden vectors
//!   (`TESTKIT_BLESS=1` regenerates them), reporting the worst element
//!   and its ULP distance on a mismatch.
//!
//! # Environment variables
//!
//! | Variable         | Effect                                          |
//! |------------------|-------------------------------------------------|
//! | `TESTKIT_SEED`   | Overrides every property test's base seed (decimal or `0x…` hex) |
//! | `TESTKIT_CASES`  | Overrides the number of cases per property      |
//! | `TESTKIT_BLESS`  | When set, golden-vector checks rewrite their files instead of comparing |
//!
//! Two runs with the same `TESTKIT_SEED` generate identical cases; a
//! failing property prints the seed and the shrunk counterexample needed
//! to reproduce it.

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod assert;
mod golden;
mod prop;
mod rng;

pub use golden::{check_f32, GoldenMode};
pub use prop::{bools, run, select, vec_of, CaseError, PropConfig, TestCaseResult};
pub use rng::{fnv1a, Rng};
