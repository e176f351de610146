//! The cumulative sum table (CSTable) and the Inverse Transform Sampling
//! (ITS) search — the indexing structure PlatoGL uses everywhere and
//! PlatoD2GL keeps only for samtree internal nodes.

use crate::WeightedIndex;
use platod2gl_mem::DeepSize;

/// A cumulative sum table: entry `i` is the strict prefix sum
/// `Σ_{j=0}^{i} w_j` (paper Eq. 2).
///
/// Sampling is a binary search (`O(log n)`), but any change to an element at
/// position `i` forces rewriting every entry after `i` — the `O(n)`
/// maintenance cost that motivates the FSTable (paper Table II):
///
/// | operation | cost |
/// |---|---|
/// | new insertion (append) | `O(1)` amortized |
/// | in-place weight update | `O(n)` |
/// | deletion | `O(n)` |
/// | weighted sample (ITS) | `O(log n)` |
///
/// ```
/// use platod2gl_sampling::{CsTable, WeightedIndex};
///
/// let mut t = CsTable::from_weights(&[1.0, 2.0, 3.0]);
/// assert_eq!(t.its_search(0.5), 0);  // cumulative boundaries: 1, 3, 6
/// assert_eq!(t.its_search(2.9), 1);
/// t.set(0, 4.0);                     // O(n): rewrites every later entry
/// assert_eq!(t.total(), 9.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CsTable {
    cumsum: Vec<f64>,
}

impl CsTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self { cumsum: Vec::new() }
    }

    /// Build from raw weights in `O(n)`.
    pub fn from_weights(weights: &[f64]) -> Self {
        let mut cumsum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cumsum.push(acc);
        }
        Self { cumsum }
    }

    /// Number of weights stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.cumsum.len()
    }

    /// Whether the table holds no weights.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cumsum.is_empty()
    }

    /// The strict prefix sum `C[i]`.
    #[inline]
    pub fn prefix_sum(&self, i: usize) -> f64 {
        self.cumsum[i]
    }

    /// Recover the raw weight at `i` in `O(1)`.
    pub fn get(&self, i: usize) -> f64 {
        if i == 0 {
            self.cumsum[0]
        } else {
            self.cumsum[i] - self.cumsum[i - 1]
        }
    }

    /// Append a weight — the one cheap maintenance case, `O(1)` amortized.
    pub fn push(&mut self, weight: f64) {
        let prev = self.cumsum.last().copied().unwrap_or(0.0);
        self.cumsum.push(prev + weight);
    }

    /// In-place update: set `w_i` to `weight`. `O(n)` — every entry at or
    /// after `i` must be rewritten.
    pub fn set(&mut self, i: usize, weight: f64) {
        let delta = weight - self.get(i);
        for c in &mut self.cumsum[i..] {
            *c += delta;
        }
    }

    /// In-place update: add `delta` to `w_i`. `O(n)`.
    pub fn add(&mut self, i: usize, delta: f64) {
        for c in &mut self.cumsum[i..] {
            *c += delta;
        }
    }

    /// Insert a weight at position `i`, shifting later elements. `O(n)`.
    ///
    /// Needed by samtree internal nodes, whose ID lists are ordered: a child
    /// split inserts the new child's weight next to its sibling's.
    pub fn insert(&mut self, i: usize, weight: f64) {
        debug_assert!(i <= self.len());
        let below = if i == 0 { 0.0 } else { self.cumsum[i - 1] };
        self.cumsum.insert(i, below + weight);
        for c in &mut self.cumsum[i + 1..] {
            *c += weight;
        }
    }

    /// Remove the element at position `i`, shifting later elements. `O(n)`.
    pub fn remove(&mut self, i: usize) -> f64 {
        let w = self.get(i);
        self.cumsum.remove(i);
        for c in &mut self.cumsum[i..] {
            *c -= w;
        }
        w
    }

    /// Multiply every weight by `factor` in `O(n)` (prefix sums are linear
    /// in the weights).
    pub fn scale(&mut self, factor: f64) {
        for c in &mut self.cumsum {
            *c *= factor;
        }
    }

    /// Recover all raw weights.
    pub fn weights(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// ITS search: the smallest `i` with `C[i] > r` (paper Sec. II-B),
    /// `O(log n)` binary search.
    pub fn its_search(&self, r: f64) -> usize {
        debug_assert!(!self.is_empty());
        let mut lo = 0usize;
        let mut hi = self.cumsum.len() - 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cumsum[mid] > r {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

impl WeightedIndex for CsTable {
    fn len(&self) -> usize {
        CsTable::len(self)
    }

    fn total(&self) -> f64 {
        self.cumsum.last().copied().unwrap_or(0.0)
    }

    fn sample_with(&self, r: f64) -> usize {
        self.its_search(r)
    }
}

impl DeepSize for CsTable {
    fn heap_bytes(&self) -> usize {
        self.cumsum.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn from_weights_builds_strict_prefix_sums() {
        // Fig. 3 example: weights of v1's first leaf are 0.1 and 0.4.
        let t = CsTable::from_weights(&[0.1, 0.4]);
        assert!((t.prefix_sum(0) - 0.1).abs() < EPS);
        assert!((t.prefix_sum(1) - 0.5).abs() < EPS);
    }

    #[test]
    fn push_extends_cumsum() {
        let mut t = CsTable::new();
        t.push(2.0);
        t.push(3.0);
        t.push(1.0);
        assert_eq!(t.weights(), vec![2.0, 3.0, 1.0]);
        assert!((t.total() - 6.0).abs() < EPS);
    }

    #[test]
    fn set_rewrites_suffix() {
        let mut t = CsTable::from_weights(&[1.0, 2.0, 3.0, 4.0]);
        t.set(1, 5.0);
        assert_eq!(t.weights(), vec![1.0, 5.0, 3.0, 4.0]);
        assert!((t.total() - 13.0).abs() < EPS);
    }

    #[test]
    fn insert_and_remove_shift_elements() {
        let mut t = CsTable::from_weights(&[1.0, 3.0]);
        t.insert(1, 2.0);
        assert_eq!(t.weights(), vec![1.0, 2.0, 3.0]);
        t.insert(0, 0.5);
        assert_eq!(t.weights(), vec![0.5, 1.0, 2.0, 3.0]);
        t.insert(4, 9.0);
        assert_eq!(t.weights(), vec![0.5, 1.0, 2.0, 3.0, 9.0]);
        let removed = t.remove(2);
        assert!((removed - 2.0).abs() < EPS);
        assert_eq!(t.weights(), vec![0.5, 1.0, 3.0, 9.0]);
    }

    #[test]
    fn its_search_finds_smallest_entry_above_r() {
        let t = CsTable::from_weights(&[1.0, 2.0, 3.0, 4.0]);
        // boundaries: 1, 3, 6, 10
        assert_eq!(t.its_search(0.0), 0);
        assert_eq!(t.its_search(0.999), 0);
        assert_eq!(t.its_search(1.0), 1);
        assert_eq!(t.its_search(2.999), 1);
        assert_eq!(t.its_search(3.0), 2);
        assert_eq!(t.its_search(6.0), 3);
        assert_eq!(t.its_search(9.999), 3);
    }

    #[test]
    fn get_recovers_weights() {
        let w = [0.25, 4.0, 0.0, 1.5];
        let t = CsTable::from_weights(&w);
        for (i, &x) in w.iter().enumerate() {
            assert!((t.get(i) - x).abs() < EPS);
        }
    }

    #[test]
    fn scale_multiplies_all_weights() {
        let mut t = CsTable::from_weights(&[1.0, 2.0, 3.0]);
        t.scale(0.5);
        assert_eq!(t.weights(), vec![0.5, 1.0, 1.5]);
        assert!((t.total() - 3.0).abs() < EPS);
    }

    #[test]
    fn deep_size_counts_capacity() {
        // Capacity, not length: a removal keeps the slot allocated.
        let mut t = CsTable::from_weights(&[1.0; 8]);
        t.remove(7);
        assert_eq!(t.heap_bytes(), 64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ops_match_reference_vec(
            init in proptest::collection::vec(0.0f64..10.0, 1..50),
            ops in proptest::collection::vec((0usize..4, 0usize..100, 0.0f64..10.0), 0..60),
        ) {
            let mut reference = init.clone();
            let mut t = CsTable::from_weights(&init);
            for (kind, idx, w) in ops {
                match kind {
                    0 => { reference.push(w); t.push(w); }
                    1 if !reference.is_empty() => {
                        let i = idx % reference.len();
                        reference[i] = w;
                        t.set(i, w);
                    }
                    2 if !reference.is_empty() => {
                        let i = idx % reference.len();
                        reference.remove(i);
                        t.remove(i);
                    }
                    3 => {
                        let i = idx % (reference.len() + 1);
                        reference.insert(i, w);
                        t.insert(i, w);
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(t.len(), reference.len());
            let got = t.weights();
            for (a, b) in got.iter().zip(&reference) {
                prop_assert!((a - b).abs() < 1e-6);
            }
        }
    }
}
