//! A minimal, deterministic property-testing runner.
//!
//! Covers the strategy shapes the workspace suites actually use —
//! integer/float ranges, booleans, choices, vectors — with
//! deterministic case generation, counterexample shrinking, and
//! environment overrides. It intentionally implements a small subset of
//! `proptest`: enough for the μLayer invariant suites, nothing more.
//!
//! # Model
//!
//! A [`Strategy`] generates values from an [`Rng`] and proposes
//! *shrink candidates* — simpler values to try once a case fails.
//! Numeric strategies shrink toward zero when the range contains it,
//! otherwise toward the range start; choices shrink toward earlier
//! options; vectors shrink by dropping elements, then shrinking them.
//!
//! Each property derives its stream as `base_seed ^ fnv1a(test_name)`,
//! so properties are independent but the whole suite replays from one
//! `TESTKIT_SEED`. A failure panics with the base seed, the original
//! counterexample, and the shrunk counterexample.
//!
//! # Usage
//!
//! ```
//! testkit::props! {
//!     #![cases(64)]
//!
//!     /// Addition is commutative on the sampled domain.
//!     fn add_commutes(a in -1000i32..1000, b in -1000i32..1000) {
//!         testkit::prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{fnv1a, Rng};

/// Why a single case did not pass.
#[derive(Clone, Debug)]
pub enum CaseError {
    /// The property is false for this input.
    Fail(String),
    /// The input does not satisfy a `prop_assume!` precondition; the
    /// case is discarded and regenerated, not counted as a failure.
    Reject(String),
}

impl CaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> CaseError {
        CaseError::Fail(msg.into())
    }

    /// A discarded case (unsatisfied precondition).
    pub fn reject(msg: impl Into<String>) -> CaseError {
        CaseError::Reject(msg.into())
    }
}

/// The result of one property-test case.
pub type TestCaseResult = Result<(), CaseError>;

/// Runner configuration, resolved from defaults plus the
/// `TESTKIT_SEED` / `TESTKIT_CASES` environment.
#[derive(Clone, Debug)]
pub struct PropConfig {
    /// Number of passing cases required.
    pub cases: u32,
    /// Base seed; each test XORs in a hash of its own name.
    pub seed: u64,
    /// Maximum accepted shrink steps before reporting.
    pub max_shrink_steps: u32,
    /// Maximum discarded (`prop_assume!`) cases before giving up.
    pub max_rejects: u32,
}

/// The default base seed. Every run is deterministic; override with
/// `TESTKIT_SEED` to explore a different stream.
pub(crate) const DEFAULT_SEED: u64 = 0x5EED_0000_0000_5EED;

impl Default for PropConfig {
    fn default() -> Self {
        PropConfig {
            cases: 64,
            seed: DEFAULT_SEED,
            max_shrink_steps: 256,
            max_rejects: 4096,
        }
    }
}

impl PropConfig {
    /// A config with `cases` as the suite default, then applies the
    /// environment overrides.
    pub fn resolve(default_cases: u32) -> PropConfig {
        let mut cfg = PropConfig {
            cases: default_cases,
            ..PropConfig::default()
        };
        if let Ok(s) = std::env::var("TESTKIT_SEED") {
            cfg.seed = parse_u64(&s)
                .unwrap_or_else(|| panic!("TESTKIT_SEED must be a u64 (decimal or 0x-hex): {s:?}"));
        }
        if let Ok(s) = std::env::var("TESTKIT_CASES") {
            cfg.cases = s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("TESTKIT_CASES must be a u32: {s:?}"));
        }
        cfg
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// A generator of test values plus their shrink candidates.
pub trait Strategy {
    /// The generated value type.
    type Value: Clone + std::fmt::Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Simpler values to try when `value` fails. Candidates must be
    /// "smaller" by some well-founded measure or shrinking may loop;
    /// the runner additionally bounds total shrink work.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                shrink_int(*v, self.start, self.end - 1)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                shrink_int(*v, *self.start(), *self.end())
            }
        }
    )+};
}

macro_rules! impl_float_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                shrink_float(*v, self.start, self.end)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, v: &$t) -> Vec<$t> {
                shrink_float(*v, *self.start(), *self.end())
            }
        }
    )+};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
impl_float_strategy!(f32, f64);

/// Shrink candidates for an integer in `[lo, hi]`: the origin (zero if
/// representable, else `lo`), the midpoint toward the origin, and one
/// step toward the origin.
fn shrink_int<T>(v: T, lo: T, hi: T) -> Vec<T>
where
    T: Copy + PartialOrd + PartialEq + num_shrink::Int,
{
    let origin = if lo <= T::ZERO && T::ZERO <= hi {
        T::ZERO
    } else {
        lo
    };
    let mut out = Vec::new();
    if v != origin {
        out.push(origin);
        let mid = origin.midpoint_toward(v);
        if mid != v && mid != origin {
            out.push(mid);
        }
        let step = v.step_toward(origin);
        if step != v && step != origin && Some(&step) != out.last() {
            out.push(step);
        }
    }
    out
}

/// Shrink candidates for a float in `[lo, hi]`: the origin and the
/// midpoint toward it, suppressed once the distance is negligible.
fn shrink_float<T: num_shrink::Float>(v: T, lo: T, hi: T) -> Vec<T> {
    let origin = if lo <= T::ZERO && T::ZERO <= hi {
        T::ZERO
    } else {
        lo
    };
    let mut out = Vec::new();
    if v.distinct_from(origin) {
        out.push(origin);
        let mid = origin.average(v);
        if mid.distinct_from(origin) && mid.distinct_from(v) {
            out.push(mid);
        }
    }
    out
}

/// Numeric helpers for shrinking, kept private to this module.
mod num_shrink {
    pub(super) trait Int: Copy + PartialOrd + PartialEq {
        const ZERO: Self;
        /// Halfway between `self` (the origin) and `v`, rounding toward
        /// the origin.
        fn midpoint_toward(self, v: Self) -> Self;
        /// `v` moved one unit toward the origin — called on the origin
        /// with the value as argument would be ambiguous, so this is
        /// invoked as `v.step_toward(origin)`.
        fn step_toward(self, origin: Self) -> Self;
    }

    macro_rules! impl_int {
        ($($t:ty),+) => {$(
            impl Int for $t {
                const ZERO: Self = 0;
                fn midpoint_toward(self, v: Self) -> Self {
                    // self = origin. Average without overflow.
                    let o = self as i128;
                    let v = v as i128;
                    (o + (v - o) / 2) as $t
                }
                fn step_toward(self, origin: Self) -> Self {
                    // self = value.
                    if self > origin { self - 1 } else if self < origin { self + 1 } else { self }
                }
            }
        )+};
    }
    impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    pub(super) trait Float: Copy + PartialOrd {
        const ZERO: Self;
        fn average(self, v: Self) -> Self;
        fn distinct_from(self, other: Self) -> bool;
    }

    macro_rules! impl_float {
        ($($t:ty),+) => {$(
            impl Float for $t {
                const ZERO: Self = 0.0;
                fn average(self, v: Self) -> Self {
                    self + (v - self) / 2.0
                }
                fn distinct_from(self, other: Self) -> bool {
                    // Relative difference big enough that shrinking
                    // makes progress and terminates.
                    (self - other).abs() > (self.abs() + other.abs() + 1.0) * 1e-5
                }
            }
        )+};
    }
    impl_float!(f32, f64);
}

/// A uniformly random boolean, shrinking `true → false`.
#[derive(Clone, Debug)]
pub struct Bools;

/// Strategy for a uniformly random boolean.
pub fn bools() -> Bools {
    Bools
}

impl Strategy for Bools {
    type Value = bool;
    fn generate(&self, rng: &mut Rng) -> bool {
        rng.gen_bool(0.5)
    }
    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// A uniform choice among fixed options, shrinking toward earlier ones.
#[derive(Clone, Debug)]
pub struct Select<T> {
    options: Vec<T>,
}

/// Strategy choosing uniformly from `options` (must be non-empty).
pub fn select<T: Clone + std::fmt::Debug + PartialEq>(options: Vec<T>) -> Select<T> {
    assert!(!options.is_empty(), "select() needs at least one option");
    Select { options }
}

impl<T: Clone + std::fmt::Debug + PartialEq> Strategy for Select<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].clone()
    }
    fn shrink(&self, v: &T) -> Vec<T> {
        match self.options.iter().position(|o| o == v) {
            Some(i) if i > 0 => vec![self.options[0].clone(), self.options[i - 1].clone()],
            _ => Vec::new(),
        }
    }
}

/// A vector of values from an element strategy, with a length range.
#[derive(Clone, Debug)]
pub struct VecOf<S> {
    elem: S,
    len: core::ops::Range<usize>,
}

/// Strategy for vectors: `len` elements drawn from `elem`.
pub fn vec_of<S: Strategy>(elem: S, len: core::ops::Range<usize>) -> VecOf<S> {
    assert!(len.start < len.end, "empty length range in vec_of");
    VecOf { elem, len }
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
    fn shrink(&self, v: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        // Structural shrinks first: shorter vectors fail simpler.
        if v.len() > self.len.start {
            let mut half = v.clone();
            half.truncate(self.len.start.max(v.len() / 2));
            if half.len() < v.len() {
                out.push(half);
            }
            let mut minus_last = v.clone();
            minus_last.pop();
            out.push(minus_last);
        }
        // Then element-wise shrinks, one position at a time.
        for (i, e) in v.iter().enumerate() {
            for cand in self.elem.shrink(e) {
                let mut nv = v.clone();
                nv[i] = cand;
                out.push(nv);
            }
        }
        out
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($S:ident . $i:tt),+ $(,)?))+) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$i.shrink(&v.$i) {
                        let mut nv = v.clone();
                        nv.$i = cand;
                        out.push(nv);
                    }
                )+
                out
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9, K.10, L.11)
}

enum Outcome {
    Pass,
    Fail(String),
    Reject,
}

/// Runs one case, converting panics inside the property body into
/// failures so `.unwrap()`-style assertions shrink like `prop_assert!`.
fn run_case<V, F>(f: &F, value: V) -> Outcome
where
    F: Fn(V) -> TestCaseResult,
{
    match catch_unwind(AssertUnwindSafe(|| f(value))) {
        Ok(Ok(())) => Outcome::Pass,
        Ok(Err(CaseError::Fail(msg))) => Outcome::Fail(msg),
        Ok(Err(CaseError::Reject(_))) => Outcome::Reject,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic (non-string payload)".to_string());
            Outcome::Fail(format!("panicked: {msg}"))
        }
    }
}

/// Executes a property: generates `cfg.cases` passing cases, shrinks
/// and reports the first failure.
///
/// Prefer the [`crate::props!`] macro, which wires names, configs, and
/// closures up for you.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) when the property fails,
/// with the seed and shrunk counterexample, or when `prop_assume!`
/// rejects more than `cfg.max_rejects` candidate cases.
pub fn run<S, F>(name: &str, cfg: &PropConfig, strategy: S, f: F)
where
    S: Strategy,
    F: Fn(S::Value) -> TestCaseResult,
{
    let mut rng = Rng::seed_from_u64(cfg.seed ^ fnv1a(name.as_bytes()));
    let mut passed = 0u32;
    let mut rejects = 0u32;
    while passed < cfg.cases {
        let value = strategy.generate(&mut rng);
        match run_case(&f, value.clone()) {
            Outcome::Pass => passed += 1,
            Outcome::Reject => {
                rejects += 1;
                if rejects > cfg.max_rejects {
                    panic!(
                        "property `{name}`: gave up after {rejects} rejected cases \
                         ({passed}/{} passed); loosen the strategy or the prop_assume!",
                        cfg.cases
                    );
                }
            }
            Outcome::Fail(first_msg) => {
                let (shrunk, msg, steps) =
                    shrink_failure(cfg, &strategy, &f, value.clone(), first_msg);
                panic!(
                    "property `{name}` failed after {passed} passing case(s)\n\
                     \x20 original counterexample: {value:?}\n\
                     \x20 shrunk  counterexample: {shrunk:?}  ({steps} shrink steps)\n\
                     \x20 error: {msg}\n\
                     \x20 reproduce with: TESTKIT_SEED={seed:#x} (base seed of this run)",
                    seed = cfg.seed,
                );
            }
        }
    }
}

/// Greedy shrink loop: repeatedly adopt the first candidate that still
/// fails, until no candidate fails or the budget runs out.
fn shrink_failure<S, F>(
    cfg: &PropConfig,
    strategy: &S,
    f: &F,
    mut value: S::Value,
    mut msg: String,
) -> (S::Value, String, u32)
where
    S: Strategy,
    F: Fn(S::Value) -> TestCaseResult,
{
    let mut steps = 0u32;
    let mut executions = 0u32;
    // Total execution cap bounds worst-case shrink time on expensive
    // properties regardless of candidate fan-out.
    let max_executions = cfg.max_shrink_steps.saturating_mul(16);
    'outer: while steps < cfg.max_shrink_steps {
        for cand in strategy.shrink(&value) {
            if executions >= max_executions {
                break 'outer;
            }
            executions += 1;
            if let Outcome::Fail(m) = run_case(f, cand.clone()) {
                value = cand;
                msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (value, msg, steps)
}

/// Defines property tests. See the `prop` module docs for an
/// example. Each `fn` becomes a `#[test]`; arguments take the form
/// `name in strategy`, where ranges (`0usize..10`, `-1.0f32..=1.0`),
/// [`bools()`], [`select()`] and [`vec_of()`] are strategies. An
/// optional leading `#![cases(N)]` sets the per-property case count
/// (overridable at runtime via `TESTKIT_CASES`).
#[macro_export]
macro_rules! props {
    (@cases($cases:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let cfg = $crate::PropConfig::resolve($cases);
            $crate::run(
                stringify!($name),
                &cfg,
                ($($strat,)+),
                |($($arg,)+)| -> $crate::TestCaseResult {
                    { $body }
                    Ok(())
                },
            );
        }
    )*};
    (#![cases($cases:expr)] $($rest:tt)*) => {
        $crate::props!(@cases($cases) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::props!(@cases(64) $($rest)*);
    };
}

/// Asserts a condition inside a property body; on failure the case is
/// reported (and shrunk) instead of panicking the whole test directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::CaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::CaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts two expressions are equal inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err($crate::CaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                a,
                b
            )));
        }
    }};
}

/// Discards the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::CaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let strat = (0usize..100, -1.0f32..=1.0, bools());
        let gen = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..32)
                .map(|_| strat.generate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(9), gen(9));
        assert_ne!(gen(9), gen(10));
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        let cfg = PropConfig {
            cases: 40,
            ..PropConfig::default()
        };
        let counter = std::cell::Cell::new(0u32);
        run("passing", &cfg, (0usize..10,), |(_x,)| {
            counter.set(counter.get() + 1);
            Ok(())
        });
        count += counter.get();
        assert_eq!(count, 40);
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        // Fails for any x >= 10: must shrink to exactly 10.
        let err = catch_unwind(AssertUnwindSafe(|| {
            let cfg = PropConfig::default();
            run("shrinks", &cfg, (0usize..1000,), |(x,)| {
                if x >= 10 {
                    Err(CaseError::fail(format!("too big: {x}")))
                } else {
                    Ok(())
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(
            msg.contains("shrunk  counterexample: (10,)"),
            "unexpected report:\n{msg}"
        );
        assert!(msg.contains("TESTKIT_SEED="), "report must name the seed");
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            let cfg = PropConfig::default();
            run("panics", &cfg, (0i32..100,), |(x,)| {
                assert!(x < 5, "boom at {x}");
                Ok(())
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("(5,)"), "unexpected report:\n{msg}");
        assert!(msg.contains("boom at 5"), "unexpected report:\n{msg}");
    }

    #[test]
    fn rejection_regenerates_cases() {
        let seen = std::cell::Cell::new(0u32);
        let cfg = PropConfig {
            cases: 20,
            ..PropConfig::default()
        };
        run("rejects", &cfg, (0usize..100,), |(x,)| {
            if x % 2 == 1 {
                return Err(CaseError::reject("odd"));
            }
            seen.set(seen.get() + 1);
            Ok(())
        });
        assert_eq!(seen.get(), 20);
    }

    #[test]
    fn select_shrinks_toward_first_option() {
        let s = select(vec![0.25f64, 0.5, 0.75]);
        assert_eq!(s.shrink(&0.75), vec![0.25, 0.5]);
        assert!(s.shrink(&0.25).is_empty());
    }

    #[test]
    fn int_shrink_targets_origin() {
        assert_eq!(shrink_int(50usize, 0, 99)[0], 0);
        // Range not containing zero shrinks toward its start.
        assert_eq!(shrink_int(8usize, 4, 12)[0], 4);
        let c = shrink_int(-40i32, -100, 100);
        assert_eq!(c[0], 0);
        assert!(c.contains(&-20));
    }

    #[test]
    fn float_shrink_terminates() {
        let mut v = 1000.0f32;
        let mut iters = 0;
        loop {
            let cands = shrink_float(v, -1e4, 1e4);
            match cands.last() {
                Some(&next) if next != v => v = next,
                _ => break,
            }
            iters += 1;
            assert!(iters < 200, "float shrinking failed to terminate");
        }
    }

    #[test]
    fn vec_of_generates_in_length_range() {
        let strat = vec_of(0usize..5, 1..4);
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((1..4).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    props! {
        #![cases(32)]

        /// The macro end-to-end: slicing then re-joining a generated
        /// vector is the identity.
        fn macro_roundtrip(v in vec_of(0u32..1000, 1..8), cut in 0usize..8) {
            let cut = cut.min(v.len());
            let (a, b) = v.split_at(cut);
            let rejoined: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
            prop_assert_eq!(&rejoined, &v);
        }

        /// prop_assume works through the macro.
        fn macro_assume(x in 0usize..100) {
            prop_assume!(x % 3 == 0);
            prop_assert!(x % 3 == 0);
        }
    }
}
