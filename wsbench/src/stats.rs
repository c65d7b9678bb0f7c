//! Latency statistics with an honest tail rule.
//!
//! A percentile is reported only when at least [`MIN_TAIL`] samples lie
//! beyond it, so a p95 needs 200 samples and a p99 needs 1 000. Every
//! refusal names the sample count it saw.

use std::fmt;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// A percentile the samples cannot support.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    /// The percentile asked for.
    pub pct: f64,
    /// Samples available.
    pub samples: usize,
    /// Samples that lie beyond the percentile's rank.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs {MIN_TAIL} samples beyond it; {} samples leave {} beyond",
            self.pct, self.samples, self.beyond
        )
    }
}

/// The nearest-rank percentile `pct` (0 < pct < 100) of `samples`, or a
/// refusal when fewer than [`MIN_TAIL`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], pct: f64) -> Result<f64, TooFewSamples> {
    let n = samples.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || rank == 0 || beyond < MIN_TAIL {
        return Err(TooFewSamples {
            pct,
            samples: n,
            beyond,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median (mean of the middle two for an even count); `None` when
/// there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_of_200_has_exactly_ten_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), Ok(190.0));
        assert!(percentile(&xs[..199], 95.0).is_err());
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
