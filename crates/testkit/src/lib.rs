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
//! - [`rng`] — seedable [`SplitMix64`] and [`Xoshiro256StarStar`] PRNGs
//!   with the `gen_range`/fill/shuffle surface the library crates need
//!   for synthetic weights and datasets. Deterministic in the seed,
//!   stable across platforms and Rust versions (unlike `StdRng`, whose
//!   algorithm is explicitly unspecified).
//! - [`prop`] — a minimal property-testing runner: range/choice/vector
//!   strategies, deterministic case generation, counterexample
//!   shrinking, and `TESTKIT_SEED`/`TESTKIT_CASES` environment
//!   overrides.
//! - [`assert`] — ULP and absolute-tolerance comparison plus per-tensor
//!   max-error reports shared by the equivalence suites.
//! - [`golden`] — load/store/check for committed golden vectors
//!   (`TESTKIT_BLESS=1` regenerates them).
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

pub mod assert;
pub mod golden;
pub mod prop;
pub mod rng;

pub use assert::{assert_slice_close, assert_ulp_close, ulp_diff, ErrorReport};
pub use prop::{bools, select, vec_of, PropConfig, TestCaseResult};
pub use rng::{Rng, SplitMix64, Xoshiro256StarStar};
