//! Medians, percentiles and scaling slopes over timing samples.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile that has too few samples beyond it to be reported.
#[derive(Debug, PartialEq)]
pub struct TooFewSamples {
    /// Samples given.
    pub samples: usize,
    /// Samples strictly beyond the requested rank.
    pub beyond: usize,
}

/// Sorts a copy of `samples` ascending (total order, NaN last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The median (nearest rank) of `samples`; 0.0 for an empty sample, which
/// is how a layer a workload never calls reads.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    v[rank(v.len(), 0.5)]
}

/// The nearest-rank `q` percentile, refused unless at least [`MIN_BEYOND`]
/// samples lie beyond it: a tail read off two or three samples is noise.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    let n = samples.len();
    let beyond = if n == 0 { 0 } else { n - 1 - rank(n, q) };
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples { samples: n, beyond });
    }
    Ok(sorted(samples)[rank(n, q)])
}

/// The tail the sample supports: the `want` percentile when enough samples
/// lie beyond it, else the highest rank that has [`MIN_BEYOND`] beyond it,
/// else (20 samples or fewer) the median. Returns `(quantile used, value)`.
pub fn supported_tail(samples: &[f64], want: f64) -> (f64, f64) {
    let n = samples.len();
    if n <= 2 * MIN_BEYOND {
        return (0.5, median(samples));
    }
    let highest = n - 1 - MIN_BEYOND;
    let v = sorted(samples);
    if rank(n, want) <= highest {
        (want, v[rank(n, want)])
    } else {
        ((highest + 1) as f64 / n as f64, v[highest])
    }
}

/// The head the sample supports, mirror image of [`supported_tail`]: the
/// `want` percentile when at least [`MIN_BEYOND`] samples lie below it, else
/// the lowest rank that has, else the median.
pub fn supported_head(samples: &[f64], want: f64) -> f64 {
    let n = samples.len();
    if n <= 2 * MIN_BEYOND {
        return median(samples);
    }
    sorted(samples)[rank(n, want).max(MIN_BEYOND)]
}

/// Least-squares slope of `ln y` against `ln x` (a scaling exponent).
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}
