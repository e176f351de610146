//! The α-Split algorithm (paper Sec. IV-C, Alg. 1).
//!
//! A full leaf must split into two halves such that every ID in the left
//! half is smaller than every ID in the right half (the parent's ordered
//! separator invariant), but sorting the unordered leaf would cost
//! `O(n log n)` per split. α-Split instead *partitions*: it selects a pivot
//! whose final position `k̂` is within `α` of the true median position `k`
//! and rearranges the elements around it, in `O(n)` average time (Thm. 1).
//! With `α = 0` this degenerates to exact QuickSelect; larger `α` accepts
//! earlier, less balanced pivots in exchange for fewer partition rounds
//! (the trade-off measured in Fig. 11d).
//!
//! Split convention (paper Example 2: `{1,2,3,4,6}` splits into `{1,2}` and
//! `{3,4,6}`): the node divides into `a[..k̂]` and `a[k̂..]`, the pivot
//! `a[k̂]` leading the right half. Because the pivot is the right half's
//! minimum, it doubles as the new separator in the parent's ordered ID list.

/// An (ID, weight) pair, the timeless view of a leaf row.
pub type IdWeight = (u64, f64);

/// A whole leaf row `(ID, weight, event time)`, moved together during
/// partitioning: the leaf's FSTable and timestamp column are positional, so
/// weight and `ts` must follow their ID through every split and merge.
/// `ts == 0` marks a timeless edge.
pub type Row = (u64, f64, u64);

/// Partition `a` around `a[0]` and return the pivot's final index: all
/// elements left of it compare `<` the pivot, all elements right of it `>`.
///
/// The paper invokes Hoare's partition scheme [15]; we use the
/// pivot-at-front variant that leaves the pivot at its exact final position
/// (which Alg. 1 requires for its `pos ∈ [k-α, k+α]` test) with the same
/// linear scan cost. IDs within one samtree are distinct, so ties need no
/// special handling.
fn partition_around_first(a: &mut [Row]) -> usize {
    debug_assert!(!a.is_empty());
    let pivot = a[0].0;
    let mut store = 0;
    for i in 1..a.len() {
        if a[i].0 < pivot {
            store += 1;
            a.swap(store, i);
        }
    }
    a.swap(0, store);
    store
}

/// α-Split (Alg. 1): rearrange `a` and return a position `k̂` with
/// `|k̂ - len/2| <= α` (clamped so neither side is empty) such that
/// `a[..k̂] < a[k̂] <= a[k̂..]` element-wise.
///
/// The caller splits the node into `a[..k̂]` and `a[k̂..]`; `a[k̂].0` is the
/// right half's minimum and thus its parent separator.
///
/// ```
/// use platod2gl_samtree::alpha_split;
///
/// // The paper's Example 2: {1,2,3,4,6} splits into {1,2} and {3,4,6}.
/// let mut pairs = vec![(3u64, 0.3, 0), (1, 0.1, 0), (4, 0.4, 0), (2, 0.2, 0), (6, 0.6, 0)];
/// let khat = alpha_split(&mut pairs, 0);
/// assert_eq!(khat, 2);
/// assert_eq!(pairs[khat].0, 3); // pivot = right half's minimum
/// assert!(pairs[..khat].iter().all(|p| p.0 < 3));
/// ```
pub fn alpha_split(a: &mut [Row], alpha: usize) -> usize {
    let n = a.len();
    assert!(n >= 2, "splitting needs at least two elements");
    let k = n / 2;
    // Slack window, clamped so both halves stay non-empty.
    let wlo = k.saturating_sub(alpha).max(1);
    let whi = (k + alpha).min(n - 1);
    debug_assert!(wlo <= k && k <= whi);
    let mut lo = 0usize;
    let mut hi = n;
    // Iterative form of Alg. 1's recursion: each round partitions the
    // current window around its median-position element (lines 1-3) and
    // either accepts it (line 4-5) or recurses into the half that contains
    // the target position k (lines 6-11).
    loop {
        let sub = &mut a[lo..hi];
        let mid = sub.len() / 2;
        sub.swap(0, mid);
        let pos = lo + partition_around_first(sub);
        if (wlo..=whi).contains(&pos) {
            return pos;
        }
        // pos is outside the window, hence pos != k: QuickSelect descent.
        if pos > k {
            hi = pos;
        } else {
            lo = pos + 1;
        }
        debug_assert!(lo <= k && k < hi, "target position escaped the window");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(ids: &[u64]) -> Vec<Row> {
        ids.iter().map(|&i| (i, i as f64 * 0.5, i + 1)).collect()
    }

    fn assert_valid_split(a: &[Row], khat: usize) {
        assert!(khat > 0 && khat < a.len(), "both halves must be non-empty");
        let pivot = a[khat].0;
        for p in &a[..khat] {
            assert!(p.0 < pivot, "{} !< pivot {}", p.0, pivot);
        }
        for p in &a[khat..] {
            assert!(p.0 >= pivot, "{} !>= pivot {}", p.0, pivot);
        }
    }

    #[test]
    fn alpha_zero_is_exact_quickselect() {
        // "the QuickSelect algorithm can be regarded as a special case of
        //  our α-Split algorithm by setting alpha as 0"
        let mut a = pairs(&[9, 1, 8, 2, 7, 3, 6, 4, 5, 0]);
        let khat = alpha_split(&mut a, 0);
        assert_eq!(khat, a.len() / 2);
        assert_eq!(a[khat].0, 5); // the k-th smallest value
        assert_valid_split(&a, khat);
    }

    #[test]
    fn paper_example2_shape() {
        // Example 2: five neighbors {1,2,3,4,6} split into {1,2} and
        // {3,4,6} — left gets k = 5/2 = 2 elements.
        let mut a = pairs(&[3, 1, 4, 2, 6]);
        let khat = alpha_split(&mut a, 0);
        assert_eq!(khat, 2);
        let mut left: Vec<u64> = a[..khat].iter().map(|p| p.0).collect();
        let mut right: Vec<u64> = a[khat..].iter().map(|p| p.0).collect();
        left.sort_unstable();
        right.sort_unstable();
        assert_eq!(left, vec![1, 2]);
        assert_eq!(right, vec![3, 4, 6]);
        // The pivot is the right half's minimum => the parent separator.
        assert_eq!(a[khat].0, 3);
    }

    #[test]
    fn slack_window_is_respected() {
        for alpha in [0usize, 1, 2, 4, 8] {
            for n in [2usize, 3, 5, 16, 257, 1000] {
                let mut ids: Vec<u64> = (0..n as u64).collect();
                ids.reverse();
                if n > 4 {
                    ids.swap(0, n / 2);
                    ids.swap(1, n - 2);
                }
                let mut a = pairs(&ids);
                let khat = alpha_split(&mut a, alpha);
                let k = n / 2;
                assert!(
                    khat + alpha >= k && khat <= k + alpha,
                    "n={n} alpha={alpha}: khat={khat} outside [{k}±{alpha}]"
                );
                assert_valid_split(&a, khat);
            }
        }
    }

    #[test]
    fn weights_travel_with_their_ids() {
        let mut a = pairs(&[5, 3, 9, 1, 7]);
        let khat = alpha_split(&mut a, 0);
        assert_valid_split(&a, khat);
        for &(id, w, ts) in a.iter() {
            assert_eq!(w, id as f64 * 0.5, "weight detached from id {id}");
            assert_eq!(ts, id + 1, "ts detached from id {id}");
        }
    }

    #[test]
    fn two_elements() {
        let mut a = pairs(&[10, 4]);
        let khat = alpha_split(&mut a, 0);
        assert_eq!(khat, 1);
        assert_eq!(a[0].0, 4);
        assert_eq!(a[1].0, 10);
    }

    #[test]
    fn already_sorted_input() {
        let mut a = pairs(&(0..100).collect::<Vec<_>>());
        let khat = alpha_split(&mut a, 0);
        assert_eq!(khat, 50);
        assert_valid_split(&a, khat);
    }

    #[test]
    fn large_alpha_still_never_empties_a_side() {
        for n in [2usize, 3, 4, 7] {
            let ids: Vec<u64> = (0..n as u64).rev().collect();
            let mut a = pairs(&ids);
            let khat = alpha_split(&mut a, 1_000);
            assert_valid_split(&a, khat);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        #[test]
        fn split_is_a_valid_partition(
            ids in proptest::collection::hash_set(any::<u64>(), 2..300),
            alpha in 0usize..16,
        ) {
            let ids: Vec<u64> = ids.into_iter().collect();
            let before: HashSet<u64> = ids.iter().copied().collect();
            let mut a: Vec<Row> = ids.iter().map(|&i| (i, 1.0, 0)).collect();
            let khat = alpha_split(&mut a, alpha);
            // Partition property.
            prop_assert!(khat > 0 && khat < a.len());
            let pivot = a[khat].0;
            prop_assert!(a[..khat].iter().all(|p| p.0 < pivot));
            prop_assert!(a[khat..].iter().all(|p| p.0 >= pivot));
            // Pivot is the right half's minimum.
            prop_assert_eq!(a[khat..].iter().map(|p| p.0).min().expect("non-empty"), pivot);
            // Permutation property: nothing lost or duplicated.
            let after: HashSet<u64> = a.iter().map(|p| p.0).collect();
            prop_assert_eq!(before, after);
            // Slack property.
            let k = a.len() / 2;
            prop_assert!(khat + alpha >= k.min(khat + alpha) && khat <= k + alpha);
            prop_assert!(khat + alpha >= k);
        }
    }
}
