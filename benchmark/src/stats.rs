//! Order statistics under the "ten samples beyond" rule, run-to-run spread,
//! and the FNV-1a digest used for reply bit-identity checks.

/// Sorted sample set; every quantile the benchmark reports comes from here.
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest rank of quantile `q` (1-based); the epsilon keeps products
    /// such as `0.99 * 1000` from rounding up past their exact value.
    fn rank(&self, q: f64) -> usize {
        (q * self.sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize
    }

    /// Nearest-rank quantile; `None` on an empty set.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[self.rank(q).min(self.sorted.len()) - 1])
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// A tail quantile, reported only when at least ten samples lie beyond
    /// it — fewer and the value is one or two outliers, not a percentile.
    pub fn tail(&self, q: f64) -> Option<f64> {
        (self.sorted.len() >= self.rank(q) + 10)
            .then(|| self.quantile(q))
            .flatten()
    }

    /// `tail(q)`, falling back to the highest supported tail (0 when even
    /// that needs more samples) — for tails that are reported, not gated.
    pub fn tail_or_highest(&self, q: f64) -> f64 {
        self.tail(q)
            .or_else(|| self.highest_supported_tail().map(|(_, v)| v))
            .unwrap_or(0.0)
    }

    /// The highest quantile that still has ten samples beyond it, with the
    /// quantile it is: what a timing with too few samples for a p99 reports.
    pub fn highest_supported_tail(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        (n > 10).then(|| ((n - 10) as f64 / n as f64, self.sorted[n - 11]))
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (exclusive method) — the definition the acceptance check uses.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let sorted = Samples::new(values.to_vec()).sorted;
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).map(|v| v as f64).collect())
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // p99 of 1000 is rank 990: exactly ten samples lie beyond.
        assert_eq!(ramp(1000).tail(0.99), Some(990.0));
        assert_eq!(ramp(999).tail(0.99), None);
        assert_eq!(ramp(10).tail(0.99), None);
        assert_eq!(ramp(0).tail(0.99), None);
        // p90 is supported from 100 samples on.
        assert_eq!(ramp(100).tail(0.9), Some(90.0));
        assert_eq!(ramp(99).tail(0.9), None);
    }

    #[test]
    fn highest_supported_tail_leaves_ten_beyond() {
        let (q, v) = ramp(80).highest_supported_tail().unwrap();
        assert_eq!(v, 70.0);
        assert!((q - 0.875).abs() < 1e-12);
        assert!(ramp(10).highest_supported_tail().is_none());
    }

    #[test]
    fn median_and_quantiles_are_nearest_rank() {
        assert_eq!(ramp(5).median(), Some(3.0));
        assert_eq!(ramp(4).median(), Some(2.0));
        assert_eq!(ramp(4).quantile(1.0), Some(4.0));
        assert_eq!(ramp(4).quantile(0.0), Some(1.0));
        assert_eq!(ramp(0).median(), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(
            quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]),
            Some((1.5, 3.0, 8.5))
        );
        assert_eq!(relative_spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }
}
