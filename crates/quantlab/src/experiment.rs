//! The Figure 10 experiment: inference accuracy under quantization.
//!
//! Variants, mirroring the paper's bars:
//!
//! - **F32** — the float reference.
//! - **F16** — all arithmetic in binary16 (expected: lossless).
//! - **QUInt8 (naive)** — 8-bit linear quantization with *one global
//!   range* shared by every tensor, the failure mode of quantizing
//!   without learning ranges: a single wide-range tensor (the logits)
//!   destroys the resolution of every other activation. This plays the
//!   role of the paper's unretrained `QUInt8` bars (up to 50.7 %p loss on
//!   Inception-v4).
//! - **QUInt8 + FakeQuant** — per-node ranges learned by observing
//!   training samples ([`unn::calibrate`]), the analogue of TensorFlow's
//!   fake-quantization retraining; the paper bounds its loss at 2.7 %p.

use utensor::{DType, Tensor};

use unn::{Calibration, Graph, Weights};

use crate::train::TrainedModel;

/// One accuracy measurement.
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    /// Variant name (paper legend).
    pub variant: &'static str,
    /// Top-1 accuracy on the test set, in `[0, 1]`.
    pub accuracy: f64,
    /// Percentage-point drop versus the F32 reference.
    pub drop_pp: f64,
}

/// Measures top-1 accuracy of `graph` on labelled samples in `dtype`.
pub fn accuracy(
    graph: &Graph,
    weights: &Weights,
    calib: &Calibration,
    samples: &[(Tensor, usize)],
    dtype: DType,
) -> f64 {
    let mut correct = 0usize;
    for (image, label) in samples {
        let outs = unn::forward(graph, weights, calib, image, dtype).expect("forward");
        let probs = outs.last().expect("output").to_f32_vec();
        if ukernels::argmax(&probs) == Some(*label) {
            correct += 1;
        }
    }
    correct as f64 / samples.len().max(1) as f64
}

/// Builds the *naive* calibration: one global activation range shared by
/// every node (and the input).
pub(crate) fn naive_calibration(
    graph: &Graph,
    weights: &Weights,
    samples: &[Tensor],
) -> Calibration {
    // Observe the true per-node ranges first...
    let proper = unn::calibrate(graph, weights, samples).expect("calibrate");
    // ...then collapse them into a single global range.
    let mut lo = 0.0f32;
    let mut hi = 0.0f32;
    for p in std::iter::once(&proper.input_params).chain(proper.act_params.iter()) {
        lo = lo.min(p.real_min());
        hi = hi.max(p.real_max());
    }
    Calibration::from_ranges(graph, weights, (lo, hi), &vec![(lo, hi); graph.len()])
        .expect("global range calibration")
}

/// Runs the full Figure 10 variant sweep on a trained model.
pub(crate) fn run_variants(model: &TrainedModel) -> Vec<AccuracyRow> {
    let test: Vec<(Tensor, usize)> = model
        .dataset
        .test
        .iter()
        .map(|s| (s.image.clone(), s.label))
        .collect();
    let calib_samples: Vec<Tensor> = model
        .dataset
        .train
        .iter()
        .take(32)
        .map(|s| s.image.clone())
        .collect();

    let calibrated =
        unn::calibrate(&model.graph, &model.weights, &calib_samples).expect("calibrate");
    let naive = naive_calibration(&model.graph, &model.weights, &calib_samples);

    let f32_acc = accuracy(&model.graph, &model.weights, &calibrated, &test, DType::F32);
    let rows = vec![
        ("F32", f32_acc),
        (
            "F16",
            accuracy(&model.graph, &model.weights, &calibrated, &test, DType::F16),
        ),
        (
            "QUInt8",
            accuracy(&model.graph, &model.weights, &naive, &test, DType::QUInt8),
        ),
        (
            "QUInt8+FakeQuant",
            accuracy(
                &model.graph,
                &model.weights,
                &calibrated,
                &test,
                DType::QUInt8,
            ),
        ),
    ];
    rows.into_iter()
        .map(|(variant, accuracy)| AccuracyRow {
            variant,
            accuracy,
            drop_pp: (f32_acc - accuracy) * 100.0,
        })
        .collect()
}

/// Trains the shallow and deep model variants and runs the variant sweep
/// on each — the complete Figure 10 substitute, one row block per
/// "network".
pub fn run_figure10() -> Vec<(String, Vec<AccuracyRow>)> {
    use crate::dataset::{generate, DatasetConfig};
    use crate::train::{train, TrainConfig};

    let ds = generate(&DatasetConfig::default());
    let shallow = train(ds.clone(), &TrainConfig::default());
    let deep = train(ds, &TrainConfig::deep());
    vec![
        (
            "cnn-shallow (1 hidden FC)".to_string(),
            run_variants(&shallow),
        ),
        ("cnn-deep (2 hidden FC)".to_string(), run_variants(&deep)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, DatasetConfig};
    use crate::train::{train, TrainConfig};

    fn model() -> TrainedModel {
        train(generate(&DatasetConfig::default()), &TrainConfig::default())
    }

    #[test]
    fn figure10_shape_holds() {
        let m = model();
        let rows = run_variants(&m);
        assert_eq!(rows.len(), 4);
        let by = |name: &str| rows.iter().find(|r| r.variant == name).unwrap().accuracy;
        let f32_acc = by("F32");
        // The model must actually work.
        assert!(f32_acc > 0.85, "F32 accuracy = {f32_acc}");
        // F16 is essentially lossless (paper: within noise).
        assert!((by("F16") - f32_acc).abs() < 0.03);
        // Naive QUInt8 loses measurably. The shallow model only loses a
        // little — consistent with Figure 10, where shallow nets lose
        // ≤2.5 %p and the dramatic losses need depth (see the deeper-
        // network test below).
        assert!(
            by("QUInt8") < f32_acc - 0.005,
            "naive QUInt8 did not degrade: {} vs {}",
            by("QUInt8"),
            f32_acc
        );
        // ...and range calibration recovers to within a few points
        // (paper: max 2.7 %p).
        assert!(
            by("QUInt8+FakeQuant") > f32_acc - 0.03,
            "calibrated QUInt8 too low: {} vs {}",
            by("QUInt8+FakeQuant"),
            f32_acc
        );
        // Calibration strictly beats the naive scheme.
        assert!(by("QUInt8+FakeQuant") > by("QUInt8"));
    }

    #[test]
    fn deeper_network_amplifies_naive_quantization_loss() {
        // Figure 10's spread: deeper networks (more requantization
        // steps) lose more from naive ranges — Inception-v4 lost 50.7 %p
        // in the paper while shallow nets lost little.
        let shallow = model();
        let deep = train(generate(&DatasetConfig::default()), &TrainConfig::deep());
        let s_rows = run_variants(&shallow);
        let d_rows = run_variants(&deep);
        let drop =
            |rows: &[AccuracyRow]| rows.iter().find(|r| r.variant == "QUInt8").unwrap().drop_pp;
        assert!(
            drop(&d_rows) > 4.0,
            "deep naive drop = {} pp",
            drop(&d_rows)
        );
        assert!(
            drop(&d_rows) > drop(&s_rows),
            "deep drop {} !> shallow drop {}",
            drop(&d_rows),
            drop(&s_rows)
        );
        // Calibration rescues the deep model too.
        let d_cal = d_rows
            .iter()
            .find(|r| r.variant == "QUInt8+FakeQuant")
            .unwrap();
        assert!(
            d_cal.drop_pp < 3.0,
            "deep calibrated drop = {}",
            d_cal.drop_pp
        );
    }

    #[test]
    fn drops_are_relative_to_f32() {
        let m = train(
            generate(&DatasetConfig {
                train_per_class: 10,
                test_per_class: 4,
                ..DatasetConfig::default()
            }),
            &TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        );
        let rows = run_variants(&m);
        let f32_row = rows.iter().find(|r| r.variant == "F32").unwrap();
        assert_eq!(f32_row.drop_pp, 0.0);
        for r in &rows {
            assert!((r.drop_pp - (f32_row.accuracy - r.accuracy) * 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn naive_calibration_is_one_global_range() {
        let m = train(
            generate(&DatasetConfig {
                train_per_class: 10,
                test_per_class: 4,
                ..DatasetConfig::default()
            }),
            &TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        );
        let samples: Vec<Tensor> = m
            .dataset
            .train
            .iter()
            .take(8)
            .map(|s| s.image.clone())
            .collect();
        let naive = naive_calibration(&m.graph, &m.weights, &samples);
        let first = naive.act_params[0];
        assert!(naive
            .act_params
            .iter()
            .all(|p| (p.scale - first.scale).abs() < 1e-9));
    }
}
