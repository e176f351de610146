//! The Fenwick-tree Sum Table (FSTable) and the FTS sampling search.

use crate::lsb;
use platod2gl_mem::{reserve_rows, trim_rows, DeepSize};

/// A Fenwick-tree sum table over a sequence of non-negative `f64` weights.
///
/// Memory cost is exactly one `f64` per element — the same as storing the raw
/// weights or a CSTable — while supporting all three dynamic-update cases of
/// the paper's Table II in `O(log n)`:
///
/// | operation | method | cost |
/// |---|---|---|
/// | new insertion (append) | [`push`](Self::push) | `O(log n)` |
/// | in-place weight update | [`set`](Self::set) / [`add`](Self::add) | `O(log n)` |
/// | deletion (swap with last) | [`swap_delete`](Self::swap_delete) | `O(log n)` |
/// | weighted sample | [`sample_with`](Self::sample_with) | `O(log n)` |
///
/// Entry `i` stores `Σ_{j=g(i)+1}^{i} w_j` with `g(i) = i - LSB(i+1)`
/// (Eq. 4). Indices are 0-based as in the paper.
///
/// The entries' spare capacity stays within a small fraction of their
/// count: [`push`](Self::push) grows a full table by a bounded step
/// ([`reserve_rows`]) instead of doubling, and removals give capacity back
/// ([`trim_rows`]), so a samtree leaf pays for about the weights it holds.
///
/// ```
/// use platod2gl_fenwick::FsTable;
///
/// // The paper's Fig. 5 example: weights {0.3, 0.4, 0.1}.
/// let mut t = FsTable::from_weights(&[0.3, 0.4, 0.1]);
/// assert_eq!(t.entry(1), 0.7); // soft prefix sum of w0..=w1
///
/// // All maintenance is O(log n):
/// t.push(0.2);           // new insertion (Alg. 4)
/// t.set(0, 1.0);         // in-place update (Alg. 3)
/// t.swap_delete(2);      // deletion by swap-with-last
/// assert!((t.total() - 1.6).abs() < 1e-9);
///
/// // FTS weighted sampling (Alg. 5): residual mass 1.3 lands past w0=1.0.
/// assert_ne!(t.sample_with(0.5), t.sample_with(1.3));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FsTable {
    tree: Vec<f64>,
}

impl FsTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self { tree: Vec::new() }
    }

    /// Build a table from raw weights in `O(n)`.
    ///
    /// Each parent entry absorbs its children in one forward pass, the
    /// standard linear-time binary-indexed-tree construction.
    pub fn from_weights(weights: &[f64]) -> Self {
        let mut tree = weights.to_vec();
        let n = tree.len();
        for i in 0..n {
            let parent = i + lsb(i + 1);
            if parent < n {
                tree[parent] += tree[i];
            }
        }
        Self { tree }
    }

    /// Make room for `rows` more weights, growing a full table once by a
    /// bounded step ([`reserve_rows`]); a leaf taking a run of inserts
    /// reserves for the whole run.
    pub fn reserve(&mut self, rows: usize) {
        reserve_rows(&mut self.tree, 1, rows);
    }

    /// Give capacity back once the spare room has passed the bounded-slack
    /// bound ([`trim_rows`]); removals call it themselves.
    pub fn shrink_slack(&mut self) {
        trim_rows(&mut self.tree, 1);
    }

    /// Number of weights the table holds room for.
    pub fn capacity(&self) -> usize {
        self.tree.capacity()
    }

    /// Number of weights stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the table holds no weights.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Raw soft-prefix-sum entry `F[i]` (Eq. 4), mostly useful for tests and
    /// for the FTS search.
    #[inline]
    pub fn entry(&self, i: usize) -> f64 {
        self.tree[i]
    }

    /// Sum of weights `w_0..=w_i` in `O(log n)`.
    ///
    /// Walks ancestors toward index 0, the classic Fenwick prefix query. The
    /// paper's `getAllSum` (Alg. 5) is `prefix_sum(n-1)`.
    pub fn prefix_sum(&self, i: usize) -> f64 {
        debug_assert!(i < self.len());
        let mut p = i + 1; // 1-based
        let mut s = 0.0;
        while p > 0 {
            s += self.tree[p - 1];
            p -= lsb(p);
        }
        s
    }

    /// Sum of all weights (`S_L` in the paper) in `O(log n)`.
    pub fn total(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.prefix_sum(self.len() - 1)
        }
    }

    /// Recover the raw weight at `i` in `O(log n)`.
    pub fn get(&self, i: usize) -> f64 {
        debug_assert!(i < self.len());
        if i == 0 {
            self.tree[0]
        } else {
            self.prefix_sum(i) - self.prefix_sum(i - 1)
        }
    }

    /// In-place update: add `delta` to `w_i` (Alg. 3), `O(log n)`.
    ///
    /// Walks the `O(log n)` ancestors of `i` whose covered range contains
    /// `i`, adding `delta` to each.
    pub fn add(&mut self, i: usize, delta: f64) {
        debug_assert!(i < self.len());
        let n = self.len();
        let mut i = i;
        while i < n {
            self.tree[i] += delta;
            i += lsb(i + 1);
        }
    }

    /// In-place update: set `w_i` to `weight` (Alg. 3 driven by a delta),
    /// `O(log n)`.
    pub fn set(&mut self, i: usize, weight: f64) {
        let old = self.get(i);
        self.add(i, weight - old);
    }

    /// Decay `w_i` by `factor`, clamped at a strictly positive `floor`
    /// (the temporal plane's recency decay, `O(log n)` like [`FsTable::set`]).
    ///
    /// Inverse-CDF draws assume every positive weight owns a non-empty slice
    /// of the cumulative range: a weight decayed to `0.0` (or, through
    /// accumulated floating-point error, below it) would alias its slot
    /// boundary onto a neighbor and quietly corrupt sampling. The clamp
    /// therefore never writes a value in `(0, floor)`:
    ///
    /// * `w_i > floor` → `max(w_i · factor, floor)` — decays, stops at the
    ///   floor, never underflows;
    /// * `w_i <= floor` (already floored, or a legitimately-zero weight from
    ///   the ingest sanitizer) → unchanged. Decay must not *raise* weights.
    ///
    /// Returns the new weight.
    pub fn decay(&mut self, i: usize, factor: f64, floor: f64) -> f64 {
        debug_assert!(floor > 0.0 && floor.is_finite(), "floor must be positive");
        debug_assert!(
            (0.0..=1.0).contains(&factor),
            "decay factor must be in [0, 1]"
        );
        let old = self.get(i);
        if old <= floor {
            return old;
        }
        let new = (old * factor).max(floor);
        self.add(i, new - old);
        new
    }

    /// Append a new weight at index `n` in `O(log n)` (Alg. 4).
    ///
    /// The new entry `F[n]` must cover the range `(g(n), n]`, which is the
    /// new weight plus the entries of its Fenwick children. In 1-based terms
    /// the children of `p = n + 1` sit at `p - 2^k` for every
    /// `k < trailing_zeros(p)` — exactly the indices the paper's Alg. 4
    /// enumerates with its `(x+1) & -(x+1) = 2^k` test.
    pub fn push(&mut self, weight: f64) {
        let p = self.tree.len() + 1; // 1-based index of the new entry
        let mut s = weight;
        for k in 0..p.trailing_zeros() {
            let child = p - (1usize << k); // 1-based child
            s += self.tree[child - 1];
        }
        self.reserve(1);
        self.tree.push(s);
    }

    /// Remove the last weight in `O(1)`.
    ///
    /// Sound because position `n-1` only ever contributes to entries at
    /// indices `>= n-1`, all of which are being truncated.
    pub fn pop(&mut self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let w = self.get(self.len() - 1);
        self.tree.pop();
        self.shrink_slack();
        Some(w)
    }

    /// Delete the weight at `i` by swapping in the last weight, `O(log n)`
    /// (Sec. V-A2 "Deletion").
    ///
    /// Returns the deleted weight. The caller must apply the same swap to any
    /// parallel array (the samtree leaf applies it to its neighbor-ID list).
    pub fn swap_delete(&mut self, i: usize) -> f64 {
        debug_assert!(i < self.len());
        let last = self.len() - 1;
        if i == last {
            return self.pop().expect("non-empty");
        }
        let w_i = self.get(i);
        let w_last = self.pop().expect("non-empty");
        self.add(i, w_last - w_i);
        w_i
    }

    /// Stream the raw weights in index order, `O(n)` overall and without
    /// allocating (inverse of the linear build): `w_i` is entry `i` minus
    /// the entries of its Fenwick children, which in 1-based terms sit at
    /// `p - 2^k` for every `k < trailing_zeros(p)`, `p = i + 1`. Children
    /// are subtracted nearest first, so every caller that reads a table's
    /// weights — this iterator or [`weights`](Self::weights) — sees the
    /// same floating-point values.
    pub fn iter_weights(&self) -> impl Iterator<Item = f64> + '_ {
        self.tree.iter().enumerate().map(|(i, &entry)| {
            let p = i + 1;
            (0..p.trailing_zeros()).fold(entry, |w, k| w - self.tree[p - (1 << k) - 1])
        })
    }

    /// Recover all raw weights in `O(n)`.
    pub fn weights(&self) -> Vec<f64> {
        self.iter_weights().collect()
    }

    /// FTS: draw the index owning the residual mass `r ∈ [0, total())`
    /// (Alg. 5), `O(log n)`.
    ///
    /// Range-narrowing search over `[0, 2^m)` with `2^m >= n`: for an aligned
    /// dyadic range the midpoint entry `F[mid]` is exactly the sum of the
    /// left half (the sub-tree-sum property, Thm. 4), so one comparison
    /// either discards the right half or discards the left half while
    /// subtracting its mass from `r`.
    pub fn sample_with(&self, r: f64) -> usize {
        assert!(!self.is_empty(), "cannot sample from an empty FSTable");
        let n = self.len();
        let m = n.next_power_of_two();
        let mut r = r;
        let (mut left, mut right) = (0usize, m - 1);
        while left < right {
            let mid = left + (right - left) / 2;
            if mid >= n {
                right = mid;
                continue;
            }
            if self.tree[mid] > r {
                right = mid;
            } else {
                r -= self.tree[mid];
                left = mid + 1;
            }
        }
        left.min(n - 1)
    }

    /// Convenience: sample with a caller-supplied uniform draw in `[0, 1)`.
    ///
    /// Scales the unit draw by [`total`](Self::total); useful when the caller
    /// already has a uniform sample but not this table's mass.
    pub fn sample_unit(&self, unit: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&unit));
        self.sample_with(unit * self.total())
    }
}

impl DeepSize for FsTable {
    fn heap_bytes(&self) -> usize {
        self.tree.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < EPS, "{a} != {b}");
    }

    /// Reference prefix sums against which every test checks the table.
    fn naive_prefix(w: &[f64], i: usize) -> f64 {
        w[..=i].iter().sum()
    }

    #[test]
    fn decay_clamps_at_the_floor_and_never_underflows() {
        let floor = 1e-6;
        let mut t = FsTable::from_weights(&[2.0, floor * 1.5, floor, 0.0, 8.0]);
        // Above the floor: plain multiplicative decay.
        assert_close(t.decay(0, 0.5, floor), 1.0);
        // Decay that would cross the floor stops exactly at it — the
        // boundary case of the underflow hardening.
        assert_close(t.decay(1, 0.1, floor), floor);
        // At the floor already: unchanged, repeated decay cannot erode it.
        for _ in 0..100 {
            assert_close(t.decay(2, 0.0, floor), floor);
        }
        // A legitimately-zero weight (ingest sanitizer output) must not be
        // *raised* to the floor by decay.
        assert_close(t.decay(3, 0.5, floor), 0.0);
        // Aggressive repeated decay converges to the floor, never 0/negative.
        for _ in 0..200 {
            t.decay(4, 0.1, floor);
        }
        assert_close(t.get(4), floor);
        for i in 0..5 {
            assert!(t.get(i) >= 0.0, "slot {i} went negative");
        }
        // Prefix sums stay consistent with the decayed weights.
        let w = t.weights();
        for i in 0..5 {
            assert_close(t.prefix_sum(i), naive_prefix(&w, i));
        }
    }

    #[test]
    fn paper_example_three_weights() {
        // Fig. 5: A = {0.3, 0.4, 0.1} => F = [0.3, 0.7, 0.1].
        let t = FsTable::from_weights(&[0.3, 0.4, 0.1]);
        assert_close(t.entry(0), 0.3);
        assert_close(t.entry(1), 0.7);
        assert_close(t.entry(2), 0.1);
    }

    #[test]
    fn theorem4_power_of_two_entries_are_strict_prefix_sums() {
        // Thm. 4: F[2^k - 1] equals the strict prefix sum.
        let w: Vec<f64> = (1..=64).map(|x| x as f64).collect();
        let t = FsTable::from_weights(&w);
        for k in 0..=6 {
            let i = (1usize << k) - 1;
            assert_close(t.entry(i), naive_prefix(&w, i));
        }
    }

    #[test]
    fn prefix_sums_match_naive() {
        let w: Vec<f64> = (0..100).map(|x| (x % 7) as f64 + 0.5).collect();
        let t = FsTable::from_weights(&w);
        for i in 0..w.len() {
            assert_close(t.prefix_sum(i), naive_prefix(&w, i));
        }
    }

    #[test]
    fn push_builds_same_table_as_from_weights() {
        let w: Vec<f64> = (0..200).map(|x| ((x * 31) % 17) as f64 * 0.25).collect();
        let built = FsTable::from_weights(&w);
        let mut pushed = FsTable::new();
        for &x in &w {
            pushed.push(x);
        }
        assert_eq!(built.len(), pushed.len());
        for i in 0..w.len() {
            assert_close(built.entry(i), pushed.entry(i));
        }
    }

    #[test]
    fn get_recovers_raw_weights() {
        let w = [5.0, 1.0, 2.5, 0.0, 7.25, 3.0];
        let t = FsTable::from_weights(&w);
        for (i, &x) in w.iter().enumerate() {
            assert_close(t.get(i), x);
        }
    }

    #[test]
    fn weights_roundtrip() {
        let w: Vec<f64> = (0..97).map(|x| (x as f64).sin().abs()).collect();
        let t = FsTable::from_weights(&w);
        let back = t.weights();
        for (a, b) in w.iter().zip(&back) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn iter_weights_is_bitwise_the_backward_sweep() {
        // The sweep `weights()` used before it became a `collect()` of the
        // iterator: windowed sampling's fallback CDF is built from these
        // values, so they must not move by an ULP.
        fn backward_sweep(t: &FsTable) -> Vec<f64> {
            let mut w = t.tree.clone();
            for i in (0..w.len()).rev() {
                let parent = i + lsb(i + 1);
                if parent < w.len() {
                    w[parent] -= w[i];
                }
            }
            w
        }
        let mut t = FsTable::new();
        for i in 0..300usize {
            t.push(((i * 2_654_435_761) % 1_000) as f64 * 0.37 + 0.01);
        }
        // Drift the entries with signed-delta updates and swap-deletes.
        for i in (0..300).step_by(7) {
            t.set(i, (i as f64).sqrt() + 0.1);
        }
        for i in (0..200).step_by(13) {
            t.swap_delete(i);
        }
        let want: Vec<u64> = backward_sweep(&t).iter().map(|w| w.to_bits()).collect();
        let got: Vec<u64> = t.iter_weights().map(f64::to_bits).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn add_and_set_update_prefixes() {
        let mut w = vec![1.0; 33];
        let mut t = FsTable::from_weights(&w);
        t.add(10, 4.0);
        w[10] += 4.0;
        t.set(32, 0.25);
        w[32] = 0.25;
        t.set(0, 9.0);
        w[0] = 9.0;
        for i in 0..w.len() {
            assert_close(t.prefix_sum(i), naive_prefix(&w, i));
        }
    }

    #[test]
    fn pop_then_table_still_consistent() {
        let w: Vec<f64> = (1..=20).map(|x| x as f64).collect();
        let mut t = FsTable::from_weights(&w);
        for k in (1..=20).rev() {
            let popped = t.pop().unwrap();
            assert_close(popped, k as f64);
            for i in 0..t.len() {
                assert_close(t.prefix_sum(i), naive_prefix(&w, i));
            }
        }
        assert!(t.pop().is_none());
    }

    #[test]
    fn swap_delete_mirrors_vec_swap_remove() {
        let mut w: Vec<f64> = (1..=16).map(|x| x as f64 * 0.5).collect();
        let mut t = FsTable::from_weights(&w);
        // Delete in a scattered order and compare against Vec::swap_remove.
        for &i in &[3usize, 0, 7, 7, 2, 0] {
            let deleted = t.swap_delete(i);
            let expected = w.swap_remove(i);
            assert_close(deleted, expected);
            assert_eq!(t.len(), w.len());
            for j in 0..w.len() {
                assert_close(t.prefix_sum(j), naive_prefix(&w, j));
            }
        }
    }

    #[test]
    fn swap_delete_last_element() {
        let mut t = FsTable::from_weights(&[1.0, 2.0, 3.0]);
        assert_close(t.swap_delete(2), 3.0);
        assert_eq!(t.len(), 2);
        assert_close(t.total(), 3.0);
    }

    #[test]
    fn total_of_empty_is_zero() {
        assert_close(FsTable::new().total(), 0.0);
    }

    #[test]
    fn sample_with_walks_cumulative_ranges() {
        // Weights 1,2,3,4 => cumulative boundaries 1,3,6,10.
        let t = FsTable::from_weights(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sample_with(0.0), 0);
        assert_eq!(t.sample_with(0.999), 0);
        assert_eq!(t.sample_with(1.0), 1);
        assert_eq!(t.sample_with(2.999), 1);
        assert_eq!(t.sample_with(3.0), 2);
        assert_eq!(t.sample_with(5.999), 2);
        assert_eq!(t.sample_with(6.0), 3);
        assert_eq!(t.sample_with(9.999), 3);
    }

    #[test]
    fn sample_with_non_power_of_two_lengths() {
        for n in 1..=40usize {
            let w: Vec<f64> = (0..n).map(|x| (x + 1) as f64).collect();
            let t = FsTable::from_weights(&w);
            // Probe just inside each element's cumulative range.
            let mut acc = 0.0;
            for (i, &x) in w.iter().enumerate() {
                assert_eq!(t.sample_with(acc), i, "n={n} i={i} low edge");
                assert_eq!(t.sample_with(acc + x - 1e-6), i, "n={n} i={i} high edge");
                acc += x;
            }
        }
    }

    #[test]
    fn sample_with_zero_weight_elements_are_skipped() {
        let t = FsTable::from_weights(&[0.0, 5.0, 0.0, 5.0]);
        assert_eq!(t.sample_with(0.0), 1);
        assert_eq!(t.sample_with(4.999), 1);
        assert_eq!(t.sample_with(5.0), 3);
    }

    #[test]
    fn sample_singleton() {
        let t = FsTable::from_weights(&[2.0]);
        assert_eq!(t.sample_with(0.0), 0);
        assert_eq!(t.sample_with(1.999), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sample_empty_panics() {
        FsTable::new().sample_with(0.0);
    }

    #[test]
    fn sample_unit_scales_by_total() {
        let t = FsTable::from_weights(&[1.0, 1.0, 2.0]);
        assert_eq!(t.sample_unit(0.0), 0);
        assert_eq!(t.sample_unit(0.26), 1);
        assert_eq!(t.sample_unit(0.51), 2);
        assert_eq!(t.sample_unit(0.99), 2);
    }

    #[test]
    fn deep_size_is_one_f64_per_capacity_slot() {
        use platod2gl_mem::DeepSize;
        let mut t = FsTable::new();
        t.reserve(10);
        t.push(1.0);
        assert_eq!(t.heap_bytes(), t.capacity() * 8);
        assert!(t.capacity() >= 10);
    }

    #[test]
    fn sampling_distribution_tracks_weights() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let w = [1.0, 2.0, 3.0, 4.0];
        let t = FsTable::from_weights(&w);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 4];
        let draws = 40_000;
        for _ in 0..draws {
            let r: f64 = rng.random_range(0.0..t.total());
            counts[t.sample_with(r)] += 1;
        }
        let total_w: f64 = w.iter().sum();
        for i in 0..4 {
            let expected = draws as f64 * w[i] / total_w;
            let got = counts[i] as f64;
            assert!(
                (got - expected).abs() < expected * 0.1,
                "index {i}: got {got}, expected {expected}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const EPS: f64 = 1e-6;

    fn weights_strategy() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(0.0f64..100.0, 1..200)
    }

    proptest! {
        #[test]
        fn prefix_sums_always_match_naive(w in weights_strategy()) {
            let t = FsTable::from_weights(&w);
            let mut acc = 0.0;
            for (i, &x) in w.iter().enumerate() {
                acc += x;
                prop_assert!((t.prefix_sum(i) - acc).abs() < EPS);
            }
        }

        #[test]
        fn push_equals_bulk_build(w in weights_strategy()) {
            let bulk = FsTable::from_weights(&w);
            let mut inc = FsTable::new();
            for &x in &w {
                inc.push(x);
            }
            for i in 0..w.len() {
                prop_assert!((bulk.entry(i) - inc.entry(i)).abs() < EPS);
            }
        }

        #[test]
        fn random_op_sequence_matches_reference_vec(
            w in weights_strategy(),
            ops in proptest::collection::vec((0usize..3, 0usize..1000, 0.0f64..50.0), 0..100),
        ) {
            let mut reference = w.clone();
            let mut t = FsTable::from_weights(&w);
            for (kind, idx, weight) in ops {
                match kind {
                    0 => {
                        reference.push(weight);
                        t.push(weight);
                    }
                    1 if !reference.is_empty() => {
                        let i = idx % reference.len();
                        reference[i] = weight;
                        t.set(i, weight);
                    }
                    2 if !reference.is_empty() => {
                        let i = idx % reference.len();
                        reference.swap_remove(i);
                        t.swap_delete(i);
                    }
                    _ => {}
                }
                prop_assert_eq!(t.len(), reference.len());
            }
            let mut acc = 0.0;
            for (i, &x) in reference.iter().enumerate() {
                acc += x;
                prop_assert!((t.prefix_sum(i) - acc).abs() < 1e-4,
                    "prefix {} drifted: {} vs {}", i, t.prefix_sum(i), acc);
            }
        }

        #[test]
        fn sample_with_returns_index_owning_the_mass(w in weights_strategy(), unit in 0.0f64..1.0) {
            let t = FsTable::from_weights(&w);
            let total = t.total();
            prop_assume!(total > 0.0);
            let r = unit * total;
            let idx = t.sample_with(r);
            prop_assert!(idx < w.len());
            // r must fall inside [prefix(idx-1), prefix(idx)) up to float slop.
            let hi = t.prefix_sum(idx);
            let lo = if idx == 0 { 0.0 } else { t.prefix_sum(idx - 1) };
            prop_assert!(r < hi + EPS, "r={} not below hi={}", r, hi);
            prop_assert!(r >= lo - EPS, "r={} not above lo={}", r, lo);
        }

        #[test]
        fn theorem4_holds_for_all_sizes(w in weights_strategy()) {
            let t = FsTable::from_weights(&w);
            let mut k = 1usize;
            while k <= w.len() {
                let i = k - 1;
                let strict: f64 = w[..=i].iter().sum();
                prop_assert!((t.entry(i) - strict).abs() < EPS);
                k <<= 1;
            }
        }
    }
}
