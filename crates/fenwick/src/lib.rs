//! # FSTable & FTS — Fenwick-tree indexing for dynamic weighted sampling
//!
//! This crate implements Section V of the PlatoD2GL paper:
//!
//! * [`FsTable`] — the *Fenwick-tree Sum Table* (Sec. V-A). Like the classic
//!   cumulative-sum table (CSTable) it occupies exactly one `f64` per element,
//!   but every maintenance operation — in-place weight update (Alg. 3),
//!   append-insertion (Alg. 4) and swap-deletion — runs in `O(log n)` instead
//!   of the CSTable's `O(n)`.
//! * [`FsTable::sample_with`] — the *FTS* weighted-sampling search (Alg. 5),
//!   a range-narrowing binary search over the implicit Fenwick tree that
//!   draws an index proportionally to its weight in `O(log n)`.
//!
//! The element order is the caller's insertion order; PlatoD2GL exploits this
//! by keeping samtree *leaf* nodes unordered so that insertion is always an
//! append (Sec. IV-A constraint 2).
//!
//! ## Layout
//!
//! For weights `w_0..w_{n-1}`, entry `i` stores the *soft prefix sum*
//!
//! ```text
//! F[i] = Σ_{j = g(i)+1}^{i} w_j      with g(i) = i - LSB(i+1)
//! ```
//!
//! where `LSB(x)` isolates the lowest set bit (Eq. 4 of the paper). This is
//! the classic binary-indexed-tree layout shifted to 0-based indices.
//!
//! ## Numerical behaviour
//!
//! Weights are `f64`. Deletions and in-place updates apply signed deltas, so
//! long op sequences accumulate rounding on the order of machine epsilon per
//! op. The samtree never rebuilds a table in place: a leaf split or merge
//! builds fresh tables from the leaf's rows with [`FsTable::from_weights`],
//! which clears the drift of those leaves, and a tree that stays one leaf
//! keeps its table for life.

mod fstable;

pub use fstable::FsTable;

/// Isolate the lowest set bit of `x` (the paper's `LSB` function).
///
/// `lsb(0)` is defined as 0.
#[inline]
pub fn lsb(x: usize) -> usize {
    x & x.wrapping_neg()
}

#[cfg(test)]
mod lsb_tests {
    use super::lsb;

    #[test]
    fn lsb_matches_paper_example() {
        // Paper: LSB(6) = LSB(0b110) = 2.
        assert_eq!(lsb(6), 2);
        assert_eq!(lsb(1), 1);
        assert_eq!(lsb(8), 8);
        assert_eq!(lsb(12), 4);
        assert_eq!(lsb(0), 0);
    }

    #[test]
    fn lsb_is_a_power_of_two_dividing_x() {
        for x in 1usize..10_000 {
            let l = lsb(x);
            assert!(l.is_power_of_two());
            assert_eq!(x % l, 0);
            assert_eq!(x & (l - 1), 0);
        }
    }
}
