//! Exact latency histogram at 1 µs resolution: dense counts below
//! [`DENSE_US`], raw samples above, so memory stays constant under a
//! long TCP run and every percentile is an exact sample value.

/// Latencies below this many µs are counted in dense buckets.
const DENSE_US: usize = 16_384;

/// Exact µs-resolution latency distribution.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    dense: Vec<u32>,
    tail: Vec<u64>,
    len: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            dense: Vec::new(),
            tail: Vec::new(),
            len: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, us: u64) {
        self.len += 1;
        match usize::try_from(us) {
            Ok(i) if i < DENSE_US => {
                if self.dense.is_empty() {
                    self.dense = vec![0; DENSE_US];
                }
                self.dense[i] += 1;
            }
            _ => self.tail.push(us),
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.len
    }

    /// Forgets every sample, keeping the dense buckets' allocation.
    pub fn clear(&mut self) {
        self.dense.fill(0);
        self.tail.clear();
        self.len = 0;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHist) {
        if !other.dense.is_empty() {
            if self.dense.is_empty() {
                self.dense = vec![0; DENSE_US];
            }
            for (a, b) in self.dense.iter_mut().zip(&other.dense) {
                *a += b;
            }
        }
        self.tail.extend_from_slice(&other.tail);
        self.len += other.len;
    }

    /// The nearest-rank `p`-quantile (`0 < p <= 1`), or 0 when empty.
    pub fn quantile(&mut self, p: f64) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let rank = ((p * self.len as f64).ceil() as u64).clamp(1, self.len);
        let mut seen = 0u64;
        for (us, &c) in self.dense.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return us as u64;
            }
        }
        self.tail.sort_unstable();
        self.tail[(rank - seen - 1) as usize]
    }
}

/// The nearest-rank `p`-quantile of raw samples (sorts them), or 0.
pub fn quantile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The `p`-quantile of `values`, interpolating linearly between ranks, or
/// 0 when empty.
pub fn quantile_f64(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (mean of the middle two for even counts), or 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_samples_across_dense_and_tail() {
        let mut h = LatencyHist::new();
        for us in [5, 1, 3, 100_000, 2, 4, 200_000, 6, 7, 8] {
            h.record(us);
        }
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(0.9), 100_000);
        assert_eq!(h.quantile(1.0), 200_000);
        h.clear();
        assert_eq!((h.count(), h.quantile(0.5)), (0, 0));
        h.record(9);
        assert_eq!(h.quantile(1.0), 9);
        let mut raw = vec![5, 1, 3, 100_000, 2, 4, 200_000, 6, 7, 8];
        assert_eq!(quantile(&mut raw, 0.5), 5);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
