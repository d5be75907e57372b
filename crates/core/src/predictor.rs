//! The latency predictor (§6).
//!
//! μLayer's NN partitioner consults a latency predictor to choose split
//! ratios. Following the paper, the predictor extends Neurosurgeon's
//! regression approach: per (device, kernel class, compute dtype) it fits
//! a regression model to *profiled* samples and at planning time predicts
//! the latency of a layer (or a `p`-fraction of one).
//!
//! The predictor is deliberately *not* an oracle: it is trained by
//! sampling the simulated SoC through the same profiling interface a real
//! phone would expose (run a kernel, read a timer), and it fits both a
//! linear model (`a·macs + b·bytes + c`) and a Neurosurgeon-style
//! logarithmic model (`a·macs·log2(macs) + b`), keeping whichever has the
//! lower residual. Prediction error therefore propagates into μLayer's
//! planning decisions, as it does on real hardware.

use std::collections::HashMap;

use simcore::SimSpan;
use usoc::{DeviceId, KernelWork, SocError, SocSpec, WorkClass};
use utensor::DType;

/// A fitted regression model over (macs, bytes) → seconds.
#[derive(Clone, Copy, Debug)]
pub enum FittedModel {
    /// `a·macs + b·bytes + c`.
    Linear {
        /// Seconds per MAC.
        a: f64,
        /// Seconds per byte.
        b: f64,
        /// Fixed seconds.
        c: f64,
    },
    /// `a·macs·log2(1+macs) + b` (the Neurosurgeon-style form).
    LogLinear {
        /// Seconds per MAC·log2(MAC).
        a: f64,
        /// Fixed seconds.
        b: f64,
    },
}

impl FittedModel {
    /// Predicted latency in seconds (clamped at zero).
    pub(crate) fn predict_secs(&self, macs: f64, bytes: f64) -> f64 {
        let v = match self {
            FittedModel::Linear { a, b, c } => a * macs + b * bytes + c,
            FittedModel::LogLinear { a, b } => a * macs * (1.0 + macs).log2() + b,
        };
        v.max(0.0)
    }
}

/// Solves the 3×3 linear system `m · x = v` by Gaussian elimination with
/// partial pivoting. Returns `None` for singular systems.
fn solve3(mut m: [[f64; 3]; 3], mut v: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        // Pivot.
        let piv = (col..3).max_by(|&a, &b| {
            m[a][col]
                .abs()
                .partial_cmp(&m[b][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if m[piv][col].abs() < 1e-30 {
            return None;
        }
        m.swap(col, piv);
        v.swap(col, piv);
        for row in 0..3 {
            if row != col {
                let f = m[row][col] / m[col][col];
                let pivot_row = m[col];
                for (cell, pivot) in m[row].iter_mut().zip(pivot_row) {
                    *cell -= f * pivot;
                }
                v[row] -= f * v[col];
            }
        }
    }
    Some([v[0] / m[0][0], v[1] / m[1][1], v[2] / m[2][2]])
}

/// Least-squares fit of the linear model.
fn fit_linear(samples: &[(f64, f64, f64)]) -> Option<FittedModel> {
    // Normal equations over features [macs, bytes, 1].
    let mut m = [[0.0f64; 3]; 3];
    let mut v = [0.0f64; 3];
    for &(macs, bytes, y) in samples {
        let x = [macs, bytes, 1.0];
        for i in 0..3 {
            for j in 0..3 {
                m[i][j] += x[i] * x[j];
            }
            v[i] += x[i] * y;
        }
    }
    let s = solve3(m, v)?;
    Some(FittedModel::Linear {
        a: s[0],
        b: s[1],
        c: s[2],
    })
}

/// Least-squares fit of the logarithmic model (2 parameters).
fn fit_log(samples: &[(f64, f64, f64)]) -> Option<FittedModel> {
    let (mut sxx, mut sx, mut sxy, mut sy, mut n) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(macs, _, y) in samples {
        let x = macs * (1.0 + macs).log2();
        sxx += x * x;
        sx += x;
        sxy += x * y;
        sy += y;
        n += 1.0;
    }
    let det = sxx * n - sx * sx;
    if det.abs() < 1e-30 {
        return None;
    }
    let a = (sxy * n - sx * sy) / det;
    let b = (sxx * sy - sx * sxy) / det;
    Some(FittedModel::LogLinear { a, b })
}

/// Constant model at the sample mean — the fallback when a group is too
/// small (or too degenerate) to constrain a slope.
fn mean_model(samples: &[(f64, f64, f64)]) -> FittedModel {
    let mean = samples.iter().map(|&(_, _, y)| y).sum::<f64>() / samples.len().max(1) as f64;
    FittedModel::Linear {
        a: 0.0,
        b: 0.0,
        c: mean,
    }
}

/// Stable sort index of a kernel class (grouping order in fit reports).
fn class_idx(class: WorkClass) -> u8 {
    match class {
        WorkClass::Gemm => 0,
        WorkClass::Depthwise => 1,
        WorkClass::Pool => 2,
        WorkClass::Elementwise => 3,
        WorkClass::Norm => 4,
        WorkClass::Copy => 5,
        WorkClass::Pointwise => 6,
    }
}

/// Stable sort index of a compute dtype.
fn dtype_idx(dtype: DType) -> u8 {
    match dtype {
        DType::F32 => 0,
        DType::F16 => 1,
        DType::QUInt8 => 2,
    }
}

fn residual(model: &FittedModel, samples: &[(f64, f64, f64)]) -> f64 {
    samples
        .iter()
        .map(|&(m, b, y)| {
            let e = model.predict_secs(m, b) - y;
            e * e
        })
        .sum()
}

/// One wall-clock-measured kernel execution, as produced by the real
/// execution backend's measurement harness (`uexec::measure`): the
/// part's analytic work summary paired with the seconds its worker
/// chunk actually took.
#[derive(Clone, Copy, Debug)]
pub struct MeasuredSample {
    /// The processor the part ran as (per the plan's placement).
    pub device: DeviceId,
    /// Kernel class of the work.
    pub class: WorkClass,
    /// Dtype the arithmetic ran in.
    pub compute_dtype: DType,
    /// Multiply-accumulates of the part.
    pub macs: u64,
    /// Total bytes the part moved.
    pub bytes: u64,
    /// Measured wall seconds.
    pub seconds: f64,
}

/// Fit diagnostics of one `(device, class, dtype)` measurement group.
#[derive(Clone, Debug)]
pub struct GroupFit {
    /// The group's device.
    pub device: DeviceId,
    /// The group's kernel class.
    pub class: WorkClass,
    /// The group's compute dtype.
    pub compute_dtype: DType,
    /// Samples the fit consumed.
    pub samples: usize,
    /// Mean relative prediction error over the group's own samples
    /// (the in-sample fit error the CLI reports).
    pub mean_rel_err: f64,
    /// The model that was kept.
    pub model: FittedModel,
}

/// The result of fitting a predictor from measured samples.
#[derive(Clone, Debug)]
pub struct FitReport {
    /// Per-group diagnostics, in deterministic (device, class, dtype)
    /// order.
    pub groups: Vec<GroupFit>,
    /// Total samples consumed.
    pub samples_used: usize,
    /// Samples discarded for non-finite or negative measured time.
    pub samples_skipped: usize,
}

impl FitReport {
    /// Sample-weighted mean relative fit error across all groups.
    pub fn mean_rel_err(&self) -> f64 {
        let n: usize = self.groups.iter().map(|g| g.samples).sum();
        if n == 0 {
            return 0.0;
        }
        self.groups
            .iter()
            .map(|g| g.mean_rel_err * g.samples as f64)
            .sum::<f64>()
            / n as f64
    }
}

/// The trained latency predictor.
#[derive(Clone, Debug)]
pub struct LatencyPredictor {
    models: HashMap<(DeviceId, WorkClass, DType), FittedModel>,
}

/// The kernel classes the predictor trains models for.
const CLASSES: [WorkClass; 7] = [
    WorkClass::Gemm,
    WorkClass::Pointwise,
    WorkClass::Depthwise,
    WorkClass::Pool,
    WorkClass::Elementwise,
    WorkClass::Norm,
    WorkClass::Copy,
];

impl LatencyPredictor {
    /// Trains the predictor by profiling synthetic kernels on every
    /// device of `spec`, across all supported dtypes and kernel classes.
    pub fn train(spec: &SocSpec) -> Result<LatencyPredictor, SocError> {
        let mut models = HashMap::new();
        for dev_id in spec.device_ids() {
            let dev = spec.device(dev_id)?;
            for &dtype in &dev.supported {
                for class in CLASSES {
                    let mut samples = Vec::new();
                    // Sweep arithmetic intensity and size together, like
                    // profiling a ladder of real layer configurations.
                    for mexp in 0..14 {
                        let macs: u64 = 1u64 << (10 + mexp); // 1K .. 8G MACs
                        for &ratio in &[4.0f64, 32.0, 256.0] {
                            let bytes = (macs as f64 / ratio).max(64.0) as u64;
                            let work = KernelWork {
                                class,
                                macs,
                                bytes_in: bytes / 2,
                                bytes_weights: bytes / 4,
                                bytes_out: bytes - bytes / 2 - bytes / 4,
                                compute_dtype: dtype,
                            };
                            let lat = spec.kernel_latency(dev_id, &work)?;
                            samples.push((macs as f64, bytes as f64, lat.as_secs_f64()));
                        }
                    }
                    let lin = fit_linear(&samples);
                    let log = fit_log(&samples);
                    let model = match (lin, log) {
                        (Some(a), Some(b)) => {
                            if residual(&a, &samples) <= residual(&b, &samples) {
                                a
                            } else {
                                b
                            }
                        }
                        (Some(a), None) => a,
                        (None, Some(b)) => b,
                        (None, None) => FittedModel::Linear {
                            a: 0.0,
                            b: 0.0,
                            c: 0.0,
                        },
                    };
                    models.insert((dev_id, class, dtype), model);
                }
            }
        }
        Ok(LatencyPredictor { models })
    }

    /// Fits a predictor from wall-clock measurements instead of the
    /// simulator's analytic model — the calibration loop of §6: run the
    /// network on the real execution backend, read the per-part timer,
    /// and regress `(macs, bytes) → seconds` per (device, kernel class,
    /// compute dtype).
    ///
    /// Groups with at least three samples get the same linear-vs-log
    /// model selection as [`LatencyPredictor::train`]; smaller groups
    /// fall back to a constant model at the group's mean (one
    /// measurement cannot constrain a slope). Non-finite or negative
    /// measurements are skipped and counted in the report.
    pub fn fit_from_measurements(samples: &[MeasuredSample]) -> (LatencyPredictor, FitReport) {
        // Deterministic grouping: BTreeMap over explicit sort indices.
        type GroupKey = (usize, u8, u8);
        type Group = (MeasuredSample, Vec<(f64, f64, f64)>);
        let mut grouped: std::collections::BTreeMap<GroupKey, Group> =
            std::collections::BTreeMap::new();
        let mut skipped = 0usize;
        for s in samples {
            if !s.seconds.is_finite() || s.seconds < 0.0 {
                skipped += 1;
                continue;
            }
            let key = (s.device.0, class_idx(s.class), dtype_idx(s.compute_dtype));
            grouped
                .entry(key)
                .or_insert_with(|| (*s, Vec::new()))
                .1
                .push((s.macs as f64, s.bytes as f64, s.seconds));
        }

        let mut models = HashMap::new();
        let mut groups = Vec::with_capacity(grouped.len());
        let mut used = 0usize;
        for (rep, points) in grouped.into_values() {
            used += points.len();
            let model = if points.len() >= 3 {
                let lin = fit_linear(&points);
                let log = fit_log(&points);
                match (lin, log) {
                    (Some(a), Some(b)) => {
                        if residual(&a, &points) <= residual(&b, &points) {
                            a
                        } else {
                            b
                        }
                    }
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => mean_model(&points),
                }
            } else {
                mean_model(&points)
            };
            let mean_rel_err = points
                .iter()
                .map(|&(m, b, y)| {
                    let p = model.predict_secs(m, b);
                    (p - y).abs() / y.max(1e-12)
                })
                .sum::<f64>()
                / points.len() as f64;
            models.insert((rep.device, rep.class, rep.compute_dtype), model);
            groups.push(GroupFit {
                device: rep.device,
                class: rep.class,
                compute_dtype: rep.compute_dtype,
                samples: points.len(),
                mean_rel_err,
                model,
            });
        }
        (
            LatencyPredictor { models },
            FitReport {
                groups,
                samples_used: used,
                samples_skipped: skipped,
            },
        )
    }

    /// Predicts the latency of `work` on `device`.
    ///
    /// Returns an error for (device, dtype) pairs that were never
    /// profiled (e.g. float work on an NPU) — the partitioner treats
    /// those as infeasible placements.
    pub fn predict(&self, device: DeviceId, work: &KernelWork) -> Result<SimSpan, SocError> {
        let model = self
            .models
            .get(&(device, work.class, work.compute_dtype))
            .ok_or_else(|| SocError::UnsupportedDtype {
                device: format!("{device}"),
                dtype: work.compute_dtype,
            })?;
        Ok(SimSpan::from_secs_f64(
            model.predict_secs(work.macs as f64, work.total_bytes() as f64),
        ))
    }

    /// Number of fitted models (diagnostics).
    #[cfg(test)]
    pub(crate) fn model_count(&self) -> usize {
        self.models.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usoc::DtypePlan;
    use utensor::Shape;

    #[test]
    fn solve3_known_system() {
        // 2x + y = 4; x + 3y + z = 10; y + 2z = 8 -> x=1, y=2, z=3.
        let m = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]];
        let v = [4.0, 10.0, 8.0];
        let s = solve3(m, v).unwrap();
        assert!((s[0] - 1.0).abs() < 1e-9);
        assert!((s[1] - 2.0).abs() < 1e-9);
        assert!((s[2] - 3.0).abs() < 1e-9);
        // Singular system.
        assert!(solve3([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], v).is_none());
    }

    #[test]
    fn linear_fit_recovers_exact_model() {
        let truth = |m: f64, b: f64| 2e-10 * m + 5e-11 * b + 1e-5;
        let samples: Vec<(f64, f64, f64)> = (1..30)
            .map(|i| {
                let m = (i * i * 1000) as f64;
                let b = (i * 500) as f64;
                (m, b, truth(m, b))
            })
            .collect();
        let model = fit_linear(&samples).unwrap();
        for &(m, b, y) in &samples {
            let p = model.predict_secs(m, b);
            assert!((p - y).abs() < 1e-12 + y * 1e-6, "p={p}, y={y}");
        }
    }

    #[test]
    fn trained_predictor_tracks_the_soc_within_tolerance() {
        let spec = SocSpec::exynos_7420();
        let pred = LatencyPredictor::train(&spec).unwrap();
        // Predict a realistic conv work item and compare to ground truth.
        let kind = unn::LayerKind::Conv {
            oc: 128,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        };
        let in_shape = Shape::nchw(1, 64, 28, 28);
        let out_shape = Shape::nchw(1, 128, 28, 28);
        for dev in [spec.cpu(), spec.gpu()] {
            for dtypes in [
                DtypePlan::uniform(DType::F32),
                DtypePlan::proc_friendly_cpu(),
            ] {
                let work = usoc::layer_work(&kind, &in_shape, &out_shape, dtypes, 1.0);
                let predicted = pred.predict(dev, &work).unwrap().as_secs_f64();
                let actual = spec.kernel_latency(dev, &work).unwrap().as_secs_f64();
                let rel = (predicted - actual).abs() / actual;
                assert!(rel < 0.30, "dev {dev}: rel err {rel:.3}");
            }
        }
    }

    #[test]
    fn prediction_scales_with_p() {
        // Half the output channels ≈ half the predicted compute.
        let spec = SocSpec::exynos_7420();
        let pred = LatencyPredictor::train(&spec).unwrap();
        let kind = unn::LayerKind::Conv {
            oc: 256,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        };
        let in_shape = Shape::nchw(1, 128, 28, 28);
        let out_shape = Shape::nchw(1, 256, 28, 28);
        let full = usoc::layer_work(
            &kind,
            &in_shape,
            &out_shape,
            DtypePlan::proc_friendly_cpu(),
            1.0,
        );
        let half = usoc::layer_work(
            &kind,
            &in_shape,
            &out_shape,
            DtypePlan::proc_friendly_cpu(),
            0.5,
        );
        let p_full = pred.predict(spec.cpu(), &full).unwrap().as_secs_f64();
        let p_half = pred.predict(spec.cpu(), &half).unwrap().as_secs_f64();
        let ratio = p_half / p_full;
        assert!((0.4..0.65).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn unsupported_dtype_is_an_error() {
        let spec = SocSpec::exynos_7420().with_npu();
        let pred = LatencyPredictor::train(&spec).unwrap();
        let npu = spec.find(usoc::DeviceKind::Npu).unwrap();
        let work = KernelWork {
            class: WorkClass::Gemm,
            macs: 1_000_000,
            bytes_in: 1000,
            bytes_weights: 1000,
            bytes_out: 1000,
            compute_dtype: DType::F16,
        };
        assert!(pred.predict(npu, &work).is_err());
        let mut q = work;
        q.compute_dtype = DType::QUInt8;
        assert!(pred.predict(npu, &q).is_ok());
    }

    #[test]
    fn fit_from_measurements_round_trips_a_known_model() {
        // Samples generated from an exact linear law must be recovered
        // with near-zero reported fit error, and predictions must
        // round-trip through the fitted model.
        let spec = SocSpec::exynos_7420();
        let truth = |m: f64, b: f64| 3e-10 * m + 8e-11 * b + 2e-5;
        let samples: Vec<MeasuredSample> = (1..40)
            .map(|i| {
                let macs = (i * i) as u64 * 4096;
                let bytes = i as u64 * 2048;
                MeasuredSample {
                    device: spec.cpu(),
                    class: WorkClass::Gemm,
                    compute_dtype: DType::QUInt8,
                    macs,
                    bytes,
                    seconds: truth(macs as f64, bytes as f64),
                }
            })
            .collect();
        let (pred, report) = LatencyPredictor::fit_from_measurements(&samples);
        assert_eq!(pred.model_count(), 1);
        assert_eq!(report.samples_used, samples.len());
        assert_eq!(report.samples_skipped, 0);
        assert_eq!(report.groups.len(), 1);
        assert!(
            report.mean_rel_err() < 1e-4,
            "rel err = {}",
            report.mean_rel_err()
        );
        for s in &samples {
            let work = KernelWork {
                class: s.class,
                macs: s.macs,
                bytes_in: s.bytes,
                bytes_weights: 0,
                bytes_out: 0,
                compute_dtype: s.compute_dtype,
            };
            let p = pred.predict(s.device, &work).unwrap().as_secs_f64();
            let rel = (p - s.seconds).abs() / s.seconds;
            assert!(rel < 1e-3, "rel = {rel}");
        }
    }

    #[test]
    fn fit_from_measurements_groups_and_falls_back() {
        let spec = SocSpec::exynos_7420();
        let mk = |device: DeviceId, class, dtype, macs: u64, secs: f64| MeasuredSample {
            device,
            class,
            compute_dtype: dtype,
            macs,
            bytes: macs / 8,
            seconds: secs,
        };
        let samples = vec![
            // A two-sample group: constant fallback at the mean.
            mk(spec.cpu(), WorkClass::Pool, DType::QUInt8, 1000, 1e-4),
            mk(spec.cpu(), WorkClass::Pool, DType::QUInt8, 2000, 3e-4),
            // A different device => separate group.
            mk(spec.gpu(), WorkClass::Pool, DType::F16, 1000, 5e-5),
            // Garbage measurements are skipped, not fitted.
            mk(spec.cpu(), WorkClass::Gemm, DType::QUInt8, 1000, f64::NAN),
            mk(spec.cpu(), WorkClass::Gemm, DType::QUInt8, 1000, -1.0),
        ];
        let (pred, report) = LatencyPredictor::fit_from_measurements(&samples);
        assert_eq!(pred.model_count(), 2);
        assert_eq!(report.samples_used, 3);
        assert_eq!(report.samples_skipped, 2);
        // The constant fallback predicts the mean regardless of size.
        let work = KernelWork {
            class: WorkClass::Pool,
            macs: 999_999,
            bytes_in: 0,
            bytes_weights: 0,
            bytes_out: 0,
            compute_dtype: DType::QUInt8,
        };
        let p = pred.predict(spec.cpu(), &work).unwrap().as_secs_f64();
        assert!((p - 2e-4).abs() < 1e-12, "p = {p}");
        // Unfitted (device, class, dtype) triples stay errors.
        let mut other = work;
        other.compute_dtype = DType::F32;
        assert!(pred.predict(spec.cpu(), &other).is_err());
    }

    #[test]
    fn model_count_covers_devices_classes_dtypes() {
        let spec = SocSpec::exynos_7420();
        let pred = LatencyPredictor::train(&spec).unwrap();
        // 2 devices x 3 dtypes x 7 classes.
        assert_eq!(pred.model_count(), 42);
    }
}
