//! Stratification by proxy-score quantile (`ABaeInit`).
//!
//! Algorithm 1 lines 1–4: sort the dataset by proxy score and split into
//! `K` strata by quantile. Under the paper's monotonicity assumption on the
//! proxy (§1), this groups records with similar predicate propensity, which
//! is what makes the per-stratum `p_k` meaningful.
//!
//! Ties are broken by record index so stratification is deterministic, and
//! sizes differ by at most one when `K ∤ n`.

use std::sync::OnceLock;

/// A partition of record indices into proxy-quantile strata.
///
/// Equality compares the strata only: the record → position map that
/// GROUP BY's Stage 2 builds on first use is derived from them.
#[derive(Debug, Clone)]
pub struct Stratification {
    strata: Vec<Vec<usize>>,
    /// `positions[r]`: record `r`'s index in the strata order (stratum 0's
    /// members, then stratum 1's, …), one `u32` per record. Built by the
    /// first `locate`, so a cached stratification builds it once and a
    /// scalar query, which never locates, never holds it.
    positions: OnceLock<Vec<u32>>,
}

impl PartialEq for Stratification {
    fn eq(&self, other: &Self) -> bool {
        self.strata == other.strata
    }
}

impl Eq for Stratification {}

impl Stratification {
    /// Stratifies records `0..scores.len()` into `k` quantile strata by
    /// ascending proxy score.
    ///
    /// Strata sizes are `⌈n/k⌉` for the first `n mod k` strata and `⌊n/k⌋`
    /// for the rest, so every record lands in exactly one stratum. When
    /// `k > n`, trailing strata are empty.
    ///
    /// ```
    /// use abae_core::Stratification;
    ///
    /// let scores = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2];
    /// let strat = Stratification::by_proxy_quantile(&scores, 3);
    /// assert_eq!(strat.len(), 3);
    /// assert_eq!(strat.total(), 6);
    /// // The lowest-score records land in stratum 0.
    /// assert_eq!(strat.stratum(0), &[1, 5]);
    /// ```
    ///
    /// # Panics
    /// Panics if `k == 0` — callers validate via [`crate::config`].
    pub fn by_proxy_quantile(scores: &[f64], k: usize) -> Self {
        assert!(k > 0, "stratification needs at least one stratum");
        let n = scores.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));

        let base = n / k;
        let extra = n % k;
        let mut strata = Vec::with_capacity(k);
        let mut cursor = 0usize;
        for i in 0..k {
            let size = base + usize::from(i < extra);
            strata.push(order[cursor..cursor + size].to_vec());
            cursor += size;
        }
        Self::from_strata(strata)
    }

    fn from_strata(strata: Vec<Vec<usize>>) -> Self {
        Self { strata, positions: OnceLock::new() }
    }

    /// Builds a single-stratum partition over `n` records (the degenerate
    /// `K = 1` case, equivalent to uniform sampling with a budget split).
    pub fn single(n: usize) -> Self {
        Self::from_strata(vec![(0..n).collect()])
    }

    /// Number of strata `K`.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// True when there are no strata (not constructible via the public
    /// API).
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// Record indices of stratum `k` (ascending proxy order).
    pub fn stratum(&self, k: usize) -> &[usize] {
        &self.strata[k]
    }

    /// All strata.
    pub fn strata(&self) -> &[Vec<usize>] {
        &self.strata
    }

    /// Sizes of all strata.
    pub fn sizes(&self) -> Vec<usize> {
        self.strata.iter().map(Vec::len).collect()
    }

    /// Total number of records.
    pub fn total(&self) -> usize {
        self.strata.iter().map(Vec::len).sum()
    }

    /// Record `record`'s stratum and its index among that stratum's
    /// members: `self.stratum(k)[i] == record` for `(k, i) = locate(record)`.
    /// O(K) after the first call, which builds the record → position map
    /// in one pass over the records.
    ///
    /// # Panics
    /// Panics if `record` is not one of the partitioned records, or if the
    /// partition holds more than 2^32 records.
    pub(crate) fn locate(&self, record: usize) -> (usize, usize) {
        let positions = self.positions.get_or_init(|| {
            let mut map = vec![0u32; self.total()];
            for (pos, &r) in self.strata.iter().flatten().enumerate() {
                map[r] = u32::try_from(pos).expect("a position map holds at most 2^32 records");
            }
            map
        });
        let mut offset = positions[record] as usize;
        for (k, members) in self.strata.iter().enumerate() {
            if offset < members.len() {
                return (k, offset);
            }
            offset -= members.len();
        }
        unreachable!("every position falls inside a stratum")
    }

    /// Exact per-stratum positive rates and conditional statistic moments
    /// against ground truth — used by tests and the Proposition 1/2
    /// verification experiment, never by the sampling algorithm itself.
    pub fn ground_truth(&self, labels: &[bool], values: &[f64]) -> Vec<GroundTruthStratum> {
        self.strata
            .iter()
            .map(|stratum| {
                let mut moments = abae_stats::StreamingMoments::new();
                let mut positives = 0usize;
                for &i in stratum {
                    if labels[i] {
                        positives += 1;
                        moments.push(values[i]);
                    }
                }
                GroundTruthStratum {
                    size: stratum.len(),
                    p: if stratum.is_empty() {
                        0.0
                    } else {
                        positives as f64 / stratum.len() as f64
                    },
                    mu: moments.mean_or_zero(),
                    sigma: moments.sample_std_dev_or_zero(),
                }
            })
            .collect()
    }
}

/// Exact per-stratum quantities (for analysis, not for query execution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruthStratum {
    /// Stratum size.
    pub size: usize,
    /// Exact predicate positive rate `p_k`.
    pub p: f64,
    /// Exact conditional mean `μ_k`.
    pub mu: f64,
    /// Exact conditional standard deviation `σ_k`.
    pub sigma: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn partitions_every_record_exactly_once() {
        let scores: Vec<f64> = (0..103).map(|i| (i as f64 * 0.7).sin()).collect();
        let s = Stratification::by_proxy_quantile(&scores, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.total(), 103);
        let mut seen = [false; 103];
        for stratum in s.strata() {
            for &i in stratum {
                assert!(!seen[i], "record {i} in two strata");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        let scores: Vec<f64> = (0..103).map(|i| i as f64).collect();
        let s = Stratification::by_proxy_quantile(&scores, 5);
        let sizes = s.sizes();
        assert_eq!(sizes, vec![21, 21, 21, 20, 20]);
    }

    #[test]
    fn strata_are_ordered_by_score() {
        let scores = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2];
        let s = Stratification::by_proxy_quantile(&scores, 3);
        // Max score of each stratum ≤ min score of the next.
        for k in 0..s.len() - 1 {
            let max_here = s.stratum(k).iter().map(|&i| scores[i]).fold(f64::MIN, f64::max);
            let min_next = s.stratum(k + 1).iter().map(|&i| scores[i]).fold(f64::MAX, f64::min);
            assert!(max_here <= min_next);
        }
    }

    #[test]
    fn ties_are_deterministic() {
        let scores = [0.5; 10];
        let a = Stratification::by_proxy_quantile(&scores, 3);
        let b = Stratification::by_proxy_quantile(&scores, 3);
        assert_eq!(a, b);
        // With ties, index order decides.
        assert_eq!(a.stratum(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn more_strata_than_records_leaves_trailing_empties() {
        let scores = [0.1, 0.2];
        let s = Stratification::by_proxy_quantile(&scores, 5);
        assert_eq!(s.sizes(), vec![1, 1, 0, 0, 0]);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn single_covers_everything() {
        let s = Stratification::single(7);
        assert_eq!(s.len(), 1);
        assert_eq!(s.stratum(0), &[0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "at least one stratum")]
    fn zero_strata_panics() {
        let _ = Stratification::by_proxy_quantile(&[0.5], 0);
    }

    #[test]
    fn ground_truth_matches_hand_computation() {
        // Scores already sorted: strata {0,1}, {2,3}.
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, false, true, true];
        let values = [2.0, 99.0, 4.0, 6.0];
        let s = Stratification::by_proxy_quantile(&scores, 2);
        let gt = s.ground_truth(&labels, &values);
        assert_eq!(gt[0].p, 0.5);
        assert_eq!(gt[0].mu, 2.0);
        assert_eq!(gt[0].sigma, 0.0); // single positive
        assert_eq!(gt[1].p, 1.0);
        assert_eq!(gt[1].mu, 5.0);
        assert!((gt[1].sigma - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn perfect_proxy_concentrates_positives_in_top_stratum() {
        // Proxy equals the label: all positives must land in the top
        // stratum when rates allow.
        let labels: Vec<bool> = (0..100).map(|i| i >= 80).collect();
        let scores: Vec<f64> = labels.iter().map(|&l| if l { 0.9 } else { 0.1 }).collect();
        let s = Stratification::by_proxy_quantile(&scores, 5);
        let values = vec![1.0; 100];
        let gt = s.ground_truth(&labels, &values);
        assert_eq!(gt[4].p, 1.0);
        for (k, stratum) in gt[..4].iter().enumerate() {
            assert_eq!(stratum.p, 0.0, "stratum {k}");
        }
    }

    #[test]
    fn locate_inverts_the_strata_order() {
        let scores: Vec<f64> = (0..103).map(|i| (i as f64 * 0.7).sin()).collect();
        let s = Stratification::by_proxy_quantile(&scores, 5);
        for (k, members) in s.strata().iter().enumerate() {
            for (i, &record) in members.iter().enumerate() {
                assert_eq!(s.locate(record), (k, i), "record {record}");
            }
        }
        let single = Stratification::single(4);
        assert_eq!(single.locate(3), (0, 3));
    }

    #[test]
    fn the_position_map_does_not_take_part_in_equality() {
        let scores = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2];
        let located = Stratification::by_proxy_quantile(&scores, 3);
        let fresh = Stratification::by_proxy_quantile(&scores, 3);
        let _ = located.locate(4);
        assert!(located.positions.get().is_some() && fresh.positions.get().is_none());
        assert_eq!(located, fresh);
        assert_eq!(fresh, located);
        let (a, b) = (located.clone(), fresh.clone());
        assert!(a.positions.get().is_some() && b.positions.get().is_none());
        assert_eq!(a, b);
        assert_eq!(a, fresh);
        assert_ne!(a, Stratification::by_proxy_quantile(&scores, 2));
    }

    proptest! {
        #[test]
        fn partition_invariants(
            scores in proptest::collection::vec(0.0f64..1.0, 0..300),
            k in 1usize..12,
        ) {
            let s = Stratification::by_proxy_quantile(&scores, k);
            prop_assert_eq!(s.len(), k);
            prop_assert_eq!(s.total(), scores.len());
            let sizes = s.sizes();
            let max = sizes.iter().max().copied().unwrap_or(0);
            let min = sizes.iter().min().copied().unwrap_or(0);
            prop_assert!(max - min <= 1);
            for (pos, &record) in s.strata().iter().flatten().enumerate() {
                let (k, i) = s.locate(record);
                prop_assert_eq!(s.stratum(k)[i], record);
                prop_assert_eq!(s.sizes()[..k].iter().sum::<usize>() + i, pos);
            }
        }
    }
}
