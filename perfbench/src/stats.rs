//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// An ascending copy.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A timing distribution as the benchmark reports it: the median plus the
/// highest of p99.9/p99/p90 that has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// The supported tail quantile, e.g. `0.99`.
    pub tail_q: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        let n = s.len();
        let tail_q = [0.999, 0.99, 0.9]
            .into_iter()
            .find(|q| (n as f64) * (1.0 - q) + 1e-9 >= 10.0)
            .unwrap_or(0.5);
        Summary {
            n,
            p50: percentile(&s, 0.5),
            p99: percentile(&s, 0.99),
            tail_q,
            tail: percentile(&s, tail_q),
        }
    }

    /// `p50 <v> p<tail> <v> (n=<n>)` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p{} {:.4} {unit} (n={})",
            self.p50,
            self.tail_q * 100.0,
            self.tail,
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let s = Summary::of(&v);
        assert_eq!((s.n, s.tail_q), (100, 0.9));
    }
}
