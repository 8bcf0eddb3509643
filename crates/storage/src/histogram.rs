//! File-size histograms.
//!
//! Figures 1 and 2 of the paper report file-size *distributions* over bucket
//! boundaries (…, 64MB, 128MB, 256MB, 512MB, …); the production metric of
//! §7 is "the percentage of files smaller than 128MB". [`SizeHistogram`]
//! provides both views with fixed, deterministic bucket edges.

use crate::units::MB;

/// Default bucket upper edges, in bytes. The final bucket is unbounded.
///
/// These match the x-axis of the paper's Figures 1–2: ≤8MB through >1GB.
pub const DEFAULT_EDGES_MB: [u64; 8] = [8, 16, 32, 64, 128, 256, 512, 1024];

/// A fixed-bucket histogram over file sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeHistogram {
    /// Upper (inclusive) edge of each bounded bucket, in bytes, ascending.
    edges: Vec<u64>,
    /// Counts per bucket; `counts.len() == edges.len() + 1` (last = overflow).
    counts: Vec<u64>,
    /// Total number of recorded files.
    total: u64,
    /// Total recorded bytes.
    total_bytes: u64,
}

impl Default for SizeHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl SizeHistogram {
    /// Creates a histogram with the paper-aligned default edges.
    pub fn new() -> Self {
        Self::with_edges(DEFAULT_EDGES_MB.iter().map(|mb| mb * MB).collect())
    }

    /// Creates a histogram with custom bucket edges (bytes, ascending).
    ///
    /// # Panics
    /// Panics if `edges` is empty or not strictly ascending.
    pub fn with_edges(edges: Vec<u64>) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly ascending"
        );
        let buckets = edges.len() + 1;
        Self {
            edges,
            counts: vec![0; buckets],
            total: 0,
            total_bytes: 0,
        }
    }

    /// Index of the bucket a file of `size_bytes` falls into.
    fn bucket(&self, size_bytes: u64) -> usize {
        self.edges
            .iter()
            .position(|&edge| size_bytes <= edge)
            .unwrap_or(self.edges.len())
    }

    /// Records one file of the given size.
    pub fn record(&mut self, size_bytes: u64) {
        let idx = self.bucket(size_bytes);
        self.counts[idx] += 1;
        self.total += 1;
        self.total_bytes += size_bytes;
    }

    /// Removes one previously recorded file (used when files are deleted).
    ///
    /// Removing a size that was never recorded is a bookkeeping bug in the
    /// caller (table statistics are maintained through this): debug builds
    /// panic on it, release builds saturate so the histogram stays usable.
    pub fn unrecord(&mut self, size_bytes: u64) {
        let idx = self.bucket(size_bytes);
        debug_assert!(
            self.counts[idx] > 0 && self.total_bytes >= size_bytes,
            "unrecord({size_bytes}) without a matching record"
        );
        self.counts[idx] = self.counts[idx].saturating_sub(1);
        self.total = self.total.saturating_sub(1);
        self.total_bytes = self.total_bytes.saturating_sub(size_bytes);
    }

    /// Merges another histogram with identical edges into this one.
    ///
    /// # Panics
    /// Panics if the edge vectors differ.
    pub fn merge(&mut self, other: &SizeHistogram) {
        assert_eq!(
            self.edges, other.edges,
            "cannot merge mismatched histograms"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.total_bytes += other.total_bytes;
    }

    /// Total number of recorded files.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Total recorded bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Raw per-bucket counts (`edges().len() + 1` entries).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket edges in bytes.
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Number of files with `size <= threshold_bytes`.
    ///
    /// `threshold_bytes` must be one of the bucket edges for an exact
    /// answer; otherwise the nearest lower edge is used (documented
    /// approximation, deterministic).
    pub fn count_at_or_below(&self, threshold_bytes: u64) -> u64 {
        let mut acc = 0;
        for (i, &edge) in self.edges.iter().enumerate() {
            if edge <= threshold_bytes {
                acc += self.counts[i];
            }
        }
        acc
    }

    /// Fraction of files with `size <= threshold_bytes`; 0.0 when empty.
    ///
    /// This is the paper's §7 headline metric with `threshold = 128MB`.
    pub fn fraction_at_or_below(&self, threshold_bytes: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count_at_or_below(threshold_bytes) as f64 / self.total as f64
    }

    /// Human-readable label for bucket `i`, e.g. `"64-128MB"` or `">1024MB"`.
    pub fn bucket_label(&self, i: usize) -> String {
        let to_mb = |b: u64| b / MB;
        if i == 0 {
            format!("<={}MB", to_mb(self.edges[0]))
        } else if i < self.edges.len() {
            format!("{}-{}MB", to_mb(self.edges[i - 1]), to_mb(self.edges[i]))
        } else {
            format!(">{}MB", to_mb(*self.edges.last().expect("non-empty edges")))
        }
    }

    /// Per-bucket fractions (sums to 1.0 when non-empty).
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_into_correct_buckets() {
        let mut h = SizeHistogram::new();
        h.record(4 * MB); // <=8MB
        h.record(8 * MB); // <=8MB (inclusive edge)
        h.record(100 * MB); // 64-128MB
        h.record(2048 * MB); // >1024MB
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.count_at_or_below(128 * MB), 3);
        assert!((h.fraction_at_or_below(128 * MB) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn unrecord_reverses_record() {
        let mut h = SizeHistogram::new();
        h.record(100 * MB);
        h.record(700 * MB);
        h.unrecord(100 * MB);
        assert_eq!(h.total(), 1);
        assert_eq!(h.total_bytes(), 700 * MB);
        assert_eq!(h.count_at_or_below(128 * MB), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without a matching record")]
    fn unrecord_of_an_empty_bucket_is_a_debug_panic() {
        let mut h = SizeHistogram::new();
        h.record(100 * MB);
        h.unrecord(700 * MB);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without a matching record")]
    fn unrecord_of_more_bytes_than_recorded_is_a_debug_panic() {
        let mut h = SizeHistogram::new();
        h.record(65 * MB);
        h.unrecord(100 * MB); // same 64-128MB bucket, more bytes
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = SizeHistogram::new();
        let mut b = SizeHistogram::new();
        a.record(10 * MB);
        b.record(10 * MB);
        b.record(600 * MB);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count_at_or_below(16 * MB), 2);
    }

    #[test]
    fn labels_cover_all_buckets() {
        let h = SizeHistogram::new();
        assert_eq!(h.bucket_label(0), "<=8MB");
        assert_eq!(h.bucket_label(4), "64-128MB");
        assert_eq!(h.bucket_label(8), ">1024MB");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_edges() {
        let _ = SizeHistogram::with_edges(vec![2 * MB, MB]);
    }

    proptest! {
        /// Total always equals the sum of bucket counts, and fractions sum
        /// to ~1 for non-empty histograms.
        #[test]
        fn invariants_hold(sizes in proptest::collection::vec(1u64..5_000_000_000u64, 1..200)) {
            let mut h = SizeHistogram::new();
            for s in &sizes {
                h.record(*s);
            }
            prop_assert_eq!(h.total(), sizes.len() as u64);
            prop_assert_eq!(h.counts().iter().sum::<u64>(), h.total());
            let fsum: f64 = h.fractions().iter().sum();
            prop_assert!((fsum - 1.0).abs() < 1e-9);
            prop_assert_eq!(h.total_bytes(), sizes.iter().sum::<u64>());
        }

        /// `count_at_or_below` is monotone in the threshold.
        #[test]
        fn cumulative_is_monotone(sizes in proptest::collection::vec(1u64..2_000_000_000u64, 0..100)) {
            let mut h = SizeHistogram::new();
            for s in &sizes {
                h.record(*s);
            }
            let mut prev = 0;
            for edge in h.edges().to_vec() {
                let c = h.count_at_or_below(edge);
                prop_assert!(c >= prev);
                prev = c;
            }
        }
    }
}
