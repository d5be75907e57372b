//! The harness's own arithmetic: percentiles, span self times, generators.

use ulayer_benchmark::gen;
use ulayer_benchmark::span::{self_times, self_times_by_root, Span};
use ulayer_benchmark::stats::{median, percentile, supported_tail, TooFewSamples, MIN_BEYOND};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_is_refused_without_ten_samples_beyond_it() {
    // 100 samples: p90 sits at rank 90, ten samples lie beyond it.
    assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
    // 99 samples: only nine lie beyond.
    assert_eq!(
        percentile(&ramp(99), 0.9),
        Err(TooFewSamples {
            samples: 99,
            beyond: 9
        })
    );
    assert!(percentile(&ramp(1000), 0.999).is_err());
    assert!(percentile(&[], 0.5).is_err());
    assert_eq!(MIN_BEYOND, 10);
}

#[test]
fn supported_tail_falls_back_to_what_the_sample_supports() {
    assert_eq!(supported_tail(&ramp(200), 0.9), (0.9, 180.0));
    // 64 samples: the highest percentile with ten beyond it is rank 54.
    let (q, v) = supported_tail(&ramp(64), 0.9);
    assert_eq!(v, 54.0);
    assert!(q < 0.9 && q > 0.8);
    // Too few for any tail: the median.
    assert_eq!(supported_tail(&ramp(8), 0.9), (0.5, 4.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[]), 0.0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 0,
        track: 0,
        reconstructed: false,
    }
}

#[test]
fn self_time_subtracts_nested_children() {
    let spans = [
        span("a", 0, 100, None),
        span("b", 10, 60, Some(0)),
        span("c", 20, 30, Some(1)),
    ];
    let selves = self_times(&spans);
    assert_eq!(selves["a"], 50);
    assert_eq!(selves["b"], 40);
    assert_eq!(selves["c"], 10);
    assert_eq!(selves.values().sum::<u64>(), 100);
}

#[test]
fn self_time_subtracts_sibling_children_and_counts_overlap_once() {
    // Two children one after the other.
    let apart = [
        span("a", 0, 100, None),
        span("b", 10, 30, Some(0)),
        span("b", 40, 70, Some(0)),
    ];
    let selves = self_times(&apart);
    assert_eq!((selves["a"], selves["b"]), (50, 50));

    // Two pools working on one node at once: 10..50 and 30..70 cover 60,
    // not 80, and the node keeps the 40 its children leave uncovered.
    let overlapping = [
        span("node", 0, 100, None),
        span("kernel", 10, 50, Some(0)),
        span("kernel", 30, 70, Some(0)),
    ];
    let selves = self_times(&overlapping);
    assert_eq!((selves["node"], selves["kernel"]), (40, 60));
    assert_eq!(selves.values().sum::<u64>(), 100);
}

#[test]
fn self_times_are_kept_apart_per_root() {
    let spans = [
        span("op", 0, 10, None),
        span("x", 2, 6, Some(0)),
        span("op", 20, 50, None),
        span("x", 20, 30, Some(2)),
    ];
    let by_root = self_times_by_root(&spans);
    assert_eq!(by_root.len(), 2);
    assert_eq!((by_root[0]["op"], by_root[0]["x"]), (6, 4));
    assert_eq!((by_root[1]["op"], by_root[1]["x"]), (20, 10));
}

#[test]
fn the_same_seed_gives_the_same_bytes() {
    let walk = gen::regime_walk(7, 50_000);
    assert_eq!(walk, gen::regime_walk(7, 50_000));
    assert_ne!(walk, gen::regime_walk(8, 50_000));
    // A longer walk of the same seed starts with the shorter one.
    assert_eq!(walk[..1000], gen::regime_walk(7, 1000)[..]);
    assert!(walk.iter().all(|&r| (r as usize) < gen::REGIMES));
    // Every regime is visited, so the working set really is 48 > 32.
    let mut seen = [false; gen::REGIMES];
    walk.iter().for_each(|&r| seen[r as usize] = true);
    assert!(seen.iter().all(|&s| s));

    let input = gen::input_values(7, 4096);
    assert_eq!(
        input.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        gen::input_values(7, 4096)
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );
    assert!(input.iter().all(|v| (-1.0..1.0).contains(v)));
    assert_ne!(gen::weight_seed(7), gen::weight_seed(8));
    assert_eq!(gen::fleet_seed(7, 3), 10);
}

#[test]
fn regime_coordinates_cover_the_grid_once() {
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..gen::REGIMES {
        let c = gen::regime_coords(i);
        assert!(c.iter().zip(gen::REGIME_GRID).all(|(&x, n)| x < n));
        assert!(seen.insert(c));
    }
}
