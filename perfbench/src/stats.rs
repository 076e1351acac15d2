//! Order statistics over latency samples.
//!
//! A percentile is only reported when at least [`MIN_TAIL`] samples lie
//! beyond it, so a p95 over 40 samples (two samples in the tail) is refused
//! rather than printed as if it meant something. Every reported percentile
//! carries the sample count it was taken over.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// A percentile together with the sample count it was computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
}

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum PctError {
    /// Fewer than [`MIN_TAIL`] samples would lie beyond the percentile.
    ThinTail {
        q: f64,
        samples: usize,
        beyond: usize,
    },
}

impl std::fmt::Display for PctError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PctError::ThinTail { q, samples, beyond } => write!(
                f,
                "p{} over {samples} samples leaves {beyond} beyond it (need {MIN_TAIL})",
                q * 100.0
            ),
        }
    }
}

/// The `q`-quantile (0 < q < 1) of `samples` by the nearest-rank rule,
/// refused when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<Pct, PctError> {
    assert!(
        q > 0.0 && q < 1.0,
        "percentile: q must lie in (0, 1), got {q}"
    );
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(PctError::ThinTail {
            q,
            samples: n,
            beyond,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Pct {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Median of a non-empty slice (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Largest value of a non-empty slice.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let xs: Vec<f64> = (1..=400).map(f64::from).collect();
        let p = percentile(&xs, 0.95).expect("20 samples lie beyond p95 of 400");
        assert_eq!(p.samples, 400);
        assert_eq!(p.value, 380.0);
        assert_eq!(
            percentile(&xs, 0.5)
                .expect("median is well supported")
                .value,
            200.0
        );
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // p95 of 199 samples has 9 beyond it: refused. 200 samples: 10, kept.
        let xs: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 0.95),
            Err(PctError::ThinTail {
                q: 0.95,
                samples: 199,
                beyond: 9
            })
        );
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 0.95).expect("exactly 10 beyond").samples,
            200
        );
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
