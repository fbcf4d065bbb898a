//! Incremental without-replacement draws from an index range.
//!
//! ABae samples a stratum twice: `N1` pilot draws in Stage 1, then
//! `⌊N2·T̂_k⌋` additional draws in Stage 2 that must not repeat Stage 1's
//! records (Algorithm 1 line 16: `R(2)_k ← R(1)_k + SampleFn(...)`). An
//! [`IndexPool`] runs a partial Fisher–Yates shuffle of a permutation
//! buffer over `0..n` with a drawn prefix; each `draw` extends the prefix,
//! so draws across calls are jointly a uniform without-replacement sample.
//!
//! The buffer is sparse: the pool keeps the drawn prefix in draw order and,
//! past it, only the slots a swap displaced, so it costs O(draws) memory
//! and time, not O(n). It makes the same swaps from the same `gen_range`
//! calls as a materialized buffer, so its draws are the same.

use rand::Rng;
// abae-lint: allow(hash_iter) -- lookup-only: displaced slots are read and written by key and never iterated on the result path
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

/// Fixed-key SipHash: the keys are record positions the caller's RNG
/// drew, so a per-process random key buys nothing and would make the
/// map's layout, and its cost, differ from one run to the next.
type FixedHash = BuildHasherDefault<DefaultHasher>;

/// A pool of indices `0..n` supporting repeated without-replacement draws.
#[derive(Debug, Clone)]
pub struct IndexPool {
    /// Pool size `n`.
    n: usize,
    /// The buffer's drawn prefix: the indices handed out, in draw order.
    drawn: Vec<usize>,
    /// Buffer slots at or past the prefix that hold another index than
    /// their own; every other such slot `i` holds `i`.
    // abae-lint: allow(hash_iter) -- lookup-only: read and written by key, never iterated on the result path
    displaced: HashMap<usize, usize, FixedHash>,
}

impl IndexPool {
    /// Creates a pool over `0..n`.
    pub fn new(n: usize) -> Self {
        Self { n, drawn: Vec::new(), displaced: Default::default() }
    }

    /// Total pool size `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the pool is empty (`n == 0`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of indices drawn so far.
    pub fn drawn(&self) -> usize {
        self.drawn.len()
    }

    /// Number of indices still available.
    pub fn remaining(&self) -> usize {
        self.n - self.drawn.len()
    }

    /// Draws up to `k` indices uniformly without replacement from the
    /// remaining pool, returning the drawn slice. Fewer than `k` are
    /// returned when the pool runs dry (matching the paper's behaviour when
    /// a stratum is exhausted).
    pub fn draw<R: Rng + ?Sized>(&mut self, k: usize, rng: &mut R) -> &[usize] {
        let take = k.min(self.remaining());
        let start = self.drawn.len();
        self.drawn.reserve(take);
        self.displaced.reserve(take);
        for pos in start..start + take {
            // Swap slots `pos` and `j`, then move slot `pos` into the prefix.
            let j = rng.gen_range(pos..self.n);
            let at_pos = self.displaced.remove(&pos).unwrap_or(pos);
            let at_j =
                if j == pos { at_pos } else { self.displaced.insert(j, at_pos).unwrap_or(j) };
            self.drawn.push(at_j);
        }
        &self.drawn[start..]
    }

    /// All indices drawn so far, in draw order.
    pub fn drawn_indices(&self) -> &[usize] {
        &self.drawn
    }

    /// Resets the pool so every index is available again (draw order is not
    /// restored to identity; the next draws remain uniform). The drawn
    /// prefix moves back into the buffer's displaced slots.
    pub fn reset(&mut self) {
        for (slot, index) in self.drawn.drain(..).enumerate() {
            if slot != index {
                self.displaced.insert(slot, index);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn draws_are_distinct_across_stages() {
        let mut pool = IndexPool::new(100);
        let mut r = rng(1);
        let stage1: Vec<usize> = pool.draw(30, &mut r).to_vec();
        let stage2: Vec<usize> = pool.draw(50, &mut r).to_vec();
        let all: HashSet<usize> = stage1.iter().chain(stage2.iter()).copied().collect();
        assert_eq!(all.len(), 80, "duplicate draw across stages");
        assert_eq!(pool.drawn(), 80);
        assert_eq!(pool.remaining(), 20);
    }

    #[test]
    fn over_draw_is_clamped_to_pool_size() {
        let mut pool = IndexPool::new(10);
        let mut r = rng(2);
        let got = pool.draw(25, &mut r).to_vec();
        assert_eq!(got.len(), 10);
        let unique: HashSet<usize> = got.iter().copied().collect();
        assert_eq!(unique.len(), 10);
        assert!(pool.draw(5, &mut r).is_empty());
    }

    #[test]
    fn empty_pool_yields_nothing() {
        let mut pool = IndexPool::new(0);
        let mut r = rng(3);
        assert!(pool.is_empty());
        assert!(pool.draw(4, &mut r).is_empty());
    }

    #[test]
    fn drawn_indices_accumulate_in_order() {
        let mut pool = IndexPool::new(20);
        let mut r = rng(4);
        let a = pool.draw(3, &mut r).to_vec();
        let b = pool.draw(2, &mut r).to_vec();
        let all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(pool.drawn_indices(), all.as_slice());
    }

    #[test]
    fn reset_makes_everything_available() {
        let mut pool = IndexPool::new(15);
        let mut r = rng(5);
        pool.draw(10, &mut r);
        pool.reset();
        assert_eq!(pool.remaining(), 15);
        let got = pool.draw(15, &mut r).to_vec();
        let unique: HashSet<usize> = got.iter().copied().collect();
        assert_eq!(unique.len(), 15);
    }

    #[test]
    fn marginal_inclusion_is_uniform() {
        // Each index should appear in a k-of-n draw with probability k/n.
        let n = 20;
        let k = 5;
        let trials = 40_000;
        let mut counts = vec![0u32; n];
        let mut r = rng(6);
        for _ in 0..trials {
            let mut pool = IndexPool::new(n);
            for &i in pool.draw(k, &mut r) {
                counts[i] += 1;
            }
        }
        let expect = trials as f64 * k as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "index {i} inclusion off by {dev}");
        }
    }

    #[test]
    fn two_stage_draw_is_jointly_uniform() {
        // Drawing 3 then 2 must give every index the same marginal inclusion
        // probability as drawing 5 at once.
        let n = 12;
        let trials = 60_000;
        let mut counts = vec![0u32; n];
        let mut r = rng(7);
        for _ in 0..trials {
            let mut pool = IndexPool::new(n);
            for &i in pool.draw(3, &mut r) {
                counts[i] += 1;
            }
            for &i in pool.draw(2, &mut r) {
                counts[i] += 1;
            }
        }
        let expect = trials as f64 * 5.0 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "index {i} inclusion off by {dev}");
        }
    }

    /// The materialized pool the sparse one replaced, kept as its
    /// reference: a permutation buffer over `0..n` with a drawn prefix.
    struct DensePool {
        indices: Vec<usize>,
        drawn: usize,
    }

    impl DensePool {
        fn new(n: usize) -> Self {
            Self { indices: (0..n).collect(), drawn: 0 }
        }

        fn draw<R: Rng + ?Sized>(&mut self, k: usize, rng: &mut R) -> &[usize] {
            let take = k.min(self.indices.len() - self.drawn);
            let start = self.drawn;
            for i in 0..take {
                let pos = self.drawn + i;
                let j = rng.gen_range(pos..self.indices.len());
                self.indices.swap(pos, j);
            }
            self.drawn += take;
            &self.indices[start..self.drawn]
        }

        fn drawn_indices(&self) -> &[usize] {
            &self.indices[..self.drawn]
        }

        fn reset(&mut self) {
            self.drawn = 0;
        }
    }

    proptest! {
        #[test]
        fn sparse_pool_matches_the_dense_buffer(
            n in 0usize..300,
            steps in proptest::collection::vec((0usize..120, 0usize..6), 0..10),
            seed in 0u64..u64::MAX,
        ) {
            use rand::RngCore;
            let (mut sparse, mut dense) = (IndexPool::new(n), DensePool::new(n));
            let (mut ours, mut theirs) = (rng(seed), rng(seed));
            let mut total_drawn = 0;
            for (k, op) in steps {
                if op == 0 {
                    sparse.reset();
                    dense.reset();
                } else {
                    let got = sparse.draw(k, &mut ours).to_vec();
                    prop_assert_eq!(got.as_slice(), dense.draw(k, &mut theirs));
                    total_drawn += got.len();
                }
                prop_assert_eq!(sparse.drawn_indices(), dense.drawn_indices());
                prop_assert_eq!(sparse.remaining(), n - dense.drawn);
                // O(draws) memory: each draw's swap displaces at most two
                // slots of the buffer.
                prop_assert!(sparse.displaced.len() <= 2 * total_drawn);
            }
            prop_assert_eq!(ours.next_u64(), theirs.next_u64());
        }

        #[test]
        fn no_duplicates_for_any_draw_sequence(
            n in 0usize..200,
            draws in proptest::collection::vec(0usize..50, 0..8),
            seed in 0u64..1000,
        ) {
            let mut pool = IndexPool::new(n);
            let mut r = rng(seed);
            let mut seen = HashSet::new();
            for k in draws {
                for &i in pool.draw(k, &mut r) {
                    prop_assert!(i < n);
                    prop_assert!(seen.insert(i), "duplicate index {i}");
                }
            }
            prop_assert_eq!(seen.len(), pool.drawn());
        }
    }
}
