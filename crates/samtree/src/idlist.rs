//! Vertex-ID lists with CP-ID dynamic prefix compression (paper Sec. VI-A).
//!
//! Every samtree node holds a list of 64-bit vertex IDs. Because the tree
//! orders IDs by value across children, the IDs inside one node are
//! value-clustered and usually share a long big-endian byte prefix (the
//! paper's Fig. 7 shows four IDs sharing their first 7 bytes). CP-ID storage
//! keeps `z` shared prefix bytes once plus an `(8 - z)`-byte suffix per ID,
//! with `z ∈ {0, 4, 6, 7}` "for fast compression" — suffix widths of 8, 4,
//! 2 and 1 bytes, all power-of-two sized so suffix access is a single
//! aligned load.
//!
//! A leaf's list keeps its spare capacity within a small fraction of its
//! length: [`IdList::push`] grows a full list by a bounded step and
//! [`IdList::swap_remove`] gives capacity back (`platod2gl_mem`'s
//! `reserve_rows` / `trim_rows`, the rule every leaf column shares).

use platod2gl_mem::{reserve_rows, trim_rows, DeepSize};

/// The prefix lengths (in bytes) the paper allows; 0 means uncompressed.
pub const PREFIX_LENGTHS: [u8; 3] = [7, 6, 4];

/// A list of vertex IDs, stored raw or CP-ID compressed.
///
/// The list preserves insertion order (samtree leaves rely on positions that
/// mirror their FSTable; internal nodes keep separators sorted by using the
/// positional `insert_at`/`remove_at` operations).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IdList {
    /// One `u64` per ID.
    Plain(Vec<u64>),
    /// `z` shared prefix bytes + `(8 - z)`-byte big-endian suffixes.
    Compressed {
        /// Number of shared prefix bytes (4, 6 or 7).
        z: u8,
        /// The shared prefix, right-aligned: the top `z` bytes of every ID.
        prefix: u64,
        /// Packed `(8 - z)`-byte big-endian suffixes.
        suffixes: Vec<u8>,
    },
}

impl Default for IdList {
    fn default() -> Self {
        IdList::Plain(Vec::new())
    }
}

/// Number of leading bytes shared by `a` and `b`.
fn common_prefix_bytes(a: u64, b: u64) -> u8 {
    ((a ^ b).leading_zeros() / 8) as u8
}

/// The largest allowed prefix length `<= max_bytes`, or 0 (no compression).
fn choose_z(max_bytes: u8) -> u8 {
    PREFIX_LENGTHS
        .iter()
        .copied()
        .find(|&z| z <= max_bytes)
        .unwrap_or(0)
}

/// Position of the `N`-byte suffix of `id_bytes` (big-endian) among the
/// packed `N`-byte `suffixes`.
fn scan<const N: usize>(suffixes: &[u8], id_bytes: &[u8; 8]) -> Option<usize> {
    let target: [u8; N] = id_bytes[8 - N..].try_into().expect("N <= 8");
    let (ids, _) = suffixes.as_chunks::<N>();
    ids.iter().position(|c| *c == target)
}

/// The ID whose top bytes are `high` (the prefix, already shifted into
/// place) and whose low `N` bytes are the big-endian `suffix`: one
/// fixed-size load, where a runtime-length copy costs a call.
#[inline(always)]
fn widen<const N: usize>(high: u64, suffix: &[u8; N]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[8 - N..].copy_from_slice(suffix);
    high | u64::from_be_bytes(bytes)
}

/// The ID at position `i` of a list of `N`-byte suffixes under `prefix`.
#[inline(always)]
fn load<const N: usize>(prefix: u64, suffixes: &[u8], i: usize) -> u64 {
    widen(prefix << (8 * N), &suffixes.as_chunks::<N>().0[i])
}

/// The IDs of a list of `N`-byte suffixes, in order.
#[derive(Clone, Debug)]
struct Suffixes<'a, const N: usize> {
    high: u64,
    chunks: std::slice::Iter<'a, [u8; N]>,
}

impl<'a, const N: usize> Suffixes<'a, N> {
    fn new(prefix: u64, suffixes: &'a [u8]) -> Self {
        Self {
            high: prefix << (8 * N),
            chunks: suffixes.as_chunks::<N>().0.iter(),
        }
    }
}

impl<const N: usize> Iterator for Suffixes<'_, N> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        self.chunks.next().map(|c| widen(self.high, c))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.chunks.size_hint()
    }

    #[inline]
    fn fold<B, F: FnMut(B, u64) -> B>(self, init: B, mut f: F) -> B {
        let high = self.high;
        self.chunks.fold(init, |acc, c| f(acc, widen(high, c)))
    }
}

/// Iterator over an [`IdList`]'s IDs ([`IdList::iter`]). The suffix width
/// is matched once, when the iterator is made: each variant walks its
/// suffixes as fixed-size `[u8; N]` chunks, and `fold` (so `for_each`,
/// `min`, `sum`) hands the whole walk to the variant's own loop.
#[derive(Clone, Debug)]
pub struct IdIter<'a>(IterKind<'a>);

#[derive(Clone, Debug)]
enum IterKind<'a> {
    Plain(std::iter::Copied<std::slice::Iter<'a, u64>>),
    W1(Suffixes<'a, 1>),
    W2(Suffixes<'a, 2>),
    W4(Suffixes<'a, 4>),
}

/// Run `$body` with `$it` bound to whichever variant iterator `$kind` holds.
macro_rules! each_kind {
    ($kind:expr, $it:ident => $body:expr) => {
        match $kind {
            IterKind::Plain($it) => $body,
            IterKind::W1($it) => $body,
            IterKind::W2($it) => $body,
            IterKind::W4($it) => $body,
        }
    };
}

impl Iterator for IdIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        each_kind!(&mut self.0, it => it.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        each_kind!(&self.0, it => it.size_hint())
    }

    #[inline]
    fn fold<B, F: FnMut(B, u64) -> B>(self, init: B, f: F) -> B {
        each_kind!(self.0, it => it.fold(init, f))
    }
}

impl IdList {
    /// An empty uncompressed list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from IDs; compresses with the best allowed prefix when
    /// `compression` is set.
    pub fn from_ids(ids: &[u64], compression: bool) -> Self {
        if !compression || ids.is_empty() {
            return IdList::Plain(ids.to_vec());
        }
        // All elements share exactly the bytes shared by the min and max.
        let min = *ids.iter().min().expect("non-empty");
        let max = *ids.iter().max().expect("non-empty");
        let z = choose_z(common_prefix_bytes(min, max).min(7));
        if z == 0 {
            return IdList::Plain(ids.to_vec());
        }
        let width = 8 - z as usize;
        let mut suffixes = Vec::with_capacity(ids.len() * width);
        for &id in ids {
            suffixes.extend_from_slice(&id.to_be_bytes()[z as usize..]);
        }
        IdList::Compressed {
            z,
            prefix: min >> (8 * width),
            suffixes,
        }
    }

    /// Number of IDs.
    pub fn len(&self) -> usize {
        match self {
            IdList::Plain(v) => v.len(),
            IdList::Compressed { z, suffixes, .. } => suffixes.len() / (8 - *z as usize),
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of IDs the list holds room for at its current width.
    pub fn capacity(&self) -> usize {
        match self {
            IdList::Plain(v) => v.capacity(),
            IdList::Compressed { z, suffixes, .. } => suffixes.capacity() / (8 - *z as usize),
        }
    }

    /// Make room for `rows` more IDs at the current width, growing a full
    /// list once by a bounded step (`reserve_rows`): a leaf taking a run of
    /// inserts reserves for the whole run.
    pub fn reserve(&mut self, rows: usize) {
        match self {
            IdList::Plain(v) => reserve_rows(v, 1, rows),
            IdList::Compressed { z, suffixes, .. } => reserve_rows(suffixes, 8 - *z as usize, rows),
        }
    }

    /// An empty compressed list whose prefix covers `id`: the encoding a
    /// leaf's first insert seeds (Sec. VI-A), before any row is stored.
    pub(crate) fn seeded_for(id: u64) -> Self {
        IdList::Compressed {
            z: 7,
            prefix: id >> 8,
            suffixes: Vec::new(),
        }
    }

    /// The ID at position `i`: the suffix width is matched once, then
    /// read with one fixed-size load (z ∈ {7, 6, 4}).
    pub fn get(&self, i: usize) -> u64 {
        match self {
            IdList::Plain(v) => v[i],
            IdList::Compressed {
                z,
                prefix,
                suffixes,
            } => match z {
                7 => load::<1>(*prefix, suffixes, i),
                6 => load::<2>(*prefix, suffixes, i),
                4 => load::<4>(*prefix, suffixes, i),
                _ => unreachable!("CP-ID prefix lengths are {PREFIX_LENGTHS:?}"),
            },
        }
    }

    /// Whether `id` fits under the current shared prefix.
    fn compatible(&self, id: u64) -> bool {
        match self {
            IdList::Plain(_) => true,
            IdList::Compressed { z, prefix, .. } => {
                let width = 8 - *z as usize;
                (id >> (8 * width)) == *prefix
            }
        }
    }

    /// Re-encode with a (shorter) prefix that also covers `incoming`
    /// (the paper's CP-ID update rule, Appendix A: an incompatible insert
    /// falls back to a wider suffix format).
    fn recode_for(&mut self, incoming: u64) {
        if self.is_empty() {
            // Nothing to keep: seed afresh, as a leaf's first insert does.
            *self = Self::seeded_for(incoming);
            return;
        }
        let mut ids = self.to_vec();
        ids.push(incoming);
        let min = *ids.iter().min().expect("non-empty");
        let max = *ids.iter().max().expect("non-empty");
        let z = choose_z(common_prefix_bytes(min, max).min(7));
        ids.pop();
        *self = Self::with_exact_z(&ids, z);
    }

    /// Encode `ids` with an explicit prefix length (0 = plain). The caller
    /// guarantees all IDs share at least `z` leading bytes.
    fn with_exact_z(ids: &[u64], z: u8) -> Self {
        if z == 0 || ids.is_empty() {
            return IdList::Plain(ids.to_vec());
        }
        let width = 8 - z as usize;
        let mut suffixes = Vec::with_capacity(ids.len() * width);
        for &id in ids {
            suffixes.extend_from_slice(&id.to_be_bytes()[z as usize..]);
        }
        IdList::Compressed {
            z,
            prefix: ids[0] >> (8 * width),
            suffixes,
        }
    }

    /// Append an ID (leaf fast path — leaves are unordered, Sec. IV-A).
    pub fn push(&mut self, id: u64) {
        if !self.compatible(id) {
            self.recode_for(id);
        }
        self.reserve(1);
        match self {
            IdList::Plain(v) => v.push(id),
            IdList::Compressed { z, suffixes, .. } => {
                suffixes.extend_from_slice(&id.to_be_bytes()[*z as usize..]);
            }
        }
    }

    /// Overwrite the ID at position `i`.
    pub fn set(&mut self, i: usize, id: u64) {
        if !self.compatible(id) {
            self.recode_for(id);
        }
        match self {
            IdList::Plain(v) => v[i] = id,
            IdList::Compressed { z, suffixes, .. } => {
                let width = 8 - *z as usize;
                suffixes[i * width..(i + 1) * width]
                    .copy_from_slice(&id.to_be_bytes()[*z as usize..]);
            }
        }
    }

    /// Remove position `i` by swapping in the last element (leaf deletion,
    /// Sec. IV-D), returning the removed ID.
    pub fn swap_remove(&mut self, i: usize) -> u64 {
        let removed = self.get(i);
        let last = self.len() - 1;
        if i != last {
            let last_id = self.get(last);
            self.set(i, last_id);
        }
        self.truncate(last);
        self.shrink_slack();
        removed
    }

    /// Give capacity back once the spare room has passed the bounded-slack
    /// bound (`trim_rows`); [`swap_remove`](Self::swap_remove) calls it
    /// itself.
    pub fn shrink_slack(&mut self) {
        match self {
            IdList::Plain(v) => trim_rows(v, 1),
            IdList::Compressed { z, suffixes, .. } => trim_rows(suffixes, 8 - *z as usize),
        }
    }

    /// Insert at position `i`, shifting later elements (ordered internal
    /// nodes).
    pub fn insert_at(&mut self, i: usize, id: u64) {
        if !self.compatible(id) {
            self.recode_for(id);
        }
        match self {
            IdList::Plain(v) => v.insert(i, id),
            IdList::Compressed { z, suffixes, .. } => {
                let z = *z as usize;
                // One splice shifts the tail once for the whole suffix.
                let at = i * (8 - z);
                suffixes.splice(at..at, id.to_be_bytes()[z..].iter().copied());
            }
        }
    }

    /// Remove position `i`, shifting later elements (ordered internal
    /// nodes), returning the removed ID.
    pub fn remove_at(&mut self, i: usize) -> u64 {
        let removed = self.get(i);
        match self {
            IdList::Plain(v) => {
                v.remove(i);
            }
            IdList::Compressed { z, suffixes, .. } => {
                let width = 8 - *z as usize;
                suffixes.drain(i * width..(i + 1) * width);
            }
        }
        removed
    }

    /// Truncate to `new_len` elements.
    pub fn truncate(&mut self, new_len: usize) {
        match self {
            IdList::Plain(v) => v.truncate(new_len),
            IdList::Compressed { z, suffixes, .. } => {
                suffixes.truncate(new_len * (8 - *z as usize));
            }
        }
    }

    /// All IDs, decompressed.
    pub fn to_vec(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        self.iter().for_each(|id| out.push(id));
        out
    }

    /// Iterate over IDs in order.
    pub fn iter(&self) -> IdIter<'_> {
        IdIter(match self {
            IdList::Plain(v) => IterKind::Plain(v.iter().copied()),
            IdList::Compressed {
                z,
                prefix,
                suffixes,
            } => match z {
                7 => IterKind::W1(Suffixes::new(*prefix, suffixes)),
                6 => IterKind::W2(Suffixes::new(*prefix, suffixes)),
                4 => IterKind::W4(Suffixes::new(*prefix, suffixes)),
                _ => unreachable!("CP-ID prefix lengths are {PREFIX_LENGTHS:?}"),
            },
        })
    }

    /// Position of `id`, by linear scan: leaves are unordered (Sec. IV-A),
    /// so there is nothing to bisect.
    ///
    /// On compressed lists the scan compares raw suffixes after one prefix
    /// check, so lookups never reconstruct full IDs. Each suffix width CP-ID
    /// allows (`z ∈ {7, 6, 4}`) gets its own fixed-width `[u8; N]` compare —
    /// one load and one integer compare per ID, where a runtime-length
    /// slice compare costs a `memcmp` call per ID.
    pub fn position(&self, id: u64) -> Option<usize> {
        match self {
            IdList::Plain(v) => v.iter().position(|&x| x == id),
            IdList::Compressed {
                z,
                prefix,
                suffixes,
            } => {
                let width = 8 - *z as usize;
                if (id >> (8 * width)) != *prefix {
                    return None;
                }
                let bytes = id.to_be_bytes();
                match z {
                    7 => scan::<1>(suffixes, &bytes),
                    6 => scan::<2>(suffixes, &bytes),
                    4 => scan::<4>(suffixes, &bytes),
                    _ => unreachable!("CP-ID prefix lengths are {PREFIX_LENGTHS:?}"),
                }
            }
        }
    }

    /// The current prefix length in bytes (0 when uncompressed).
    pub fn prefix_len(&self) -> u8 {
        match self {
            IdList::Plain(_) => 0,
            IdList::Compressed { z, .. } => *z,
        }
    }

    /// Bytes used per stored ID (8 for plain; the suffix width otherwise).
    pub fn bytes_per_id(&self) -> usize {
        match self {
            IdList::Plain(_) => 8,
            IdList::Compressed { z, .. } => 8 - *z as usize,
        }
    }
}

impl DeepSize for IdList {
    fn heap_bytes(&self) -> usize {
        match self {
            IdList::Plain(v) => v.capacity() * 8,
            IdList::Compressed { suffixes, .. } => suffixes.capacity(),
        }
    }
}

impl FromIterator<u64> for IdList {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        IdList::Plain(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig7_example_compresses_with_seven_byte_prefix() {
        // Fig. 7: IDs 0x10, 0x81, 0x2b, 0x5a share their first 7 bytes
        // (all zero), so CP-IDs stores z=7 and 1-byte suffixes.
        let ids = [0x10u64, 0x81, 0x2b, 0x5a];
        let list = IdList::from_ids(&ids, true);
        assert_eq!(list.prefix_len(), 7);
        assert_eq!(list.bytes_per_id(), 1);
        assert_eq!(list.to_vec(), ids);
    }

    #[test]
    fn choose_z_picks_largest_allowed() {
        assert_eq!(choose_z(8), 7);
        assert_eq!(choose_z(7), 7);
        assert_eq!(choose_z(6), 6);
        assert_eq!(choose_z(5), 4);
        assert_eq!(choose_z(4), 4);
        assert_eq!(choose_z(3), 0);
        assert_eq!(choose_z(0), 0);
    }

    #[test]
    fn from_ids_without_compression_stays_plain() {
        let list = IdList::from_ids(&[1, 2, 3], false);
        assert_eq!(list.prefix_len(), 0);
        assert_eq!(list.bytes_per_id(), 8);
    }

    #[test]
    fn wide_spread_ids_stay_plain() {
        let list = IdList::from_ids(&[0x0000_0000_0000_0001, 0xffff_0000_0000_0000], true);
        assert_eq!(list.prefix_len(), 0);
    }

    #[test]
    fn six_and_four_byte_prefixes() {
        // Differ in the low 2 bytes -> z = 6.
        let list = IdList::from_ids(&[0xAABB_CCDD_EEFF_0001, 0xAABB_CCDD_EEFF_1234], true);
        assert_eq!(list.prefix_len(), 6);
        assert_eq!(
            list.to_vec(),
            vec![0xAABB_CCDD_EEFF_0001, 0xAABB_CCDD_EEFF_1234]
        );
        // Differ in byte 4 (0-indexed from the top) -> common 4 bytes -> z = 4.
        let list = IdList::from_ids(&[0xAABB_CCDD_0000_0000, 0xAABB_CCDD_FF00_0000], true);
        assert_eq!(list.prefix_len(), 4);
        assert_eq!(
            list.to_vec(),
            vec![0xAABB_CCDD_0000_0000, 0xAABB_CCDD_FF00_0000]
        );
    }

    #[test]
    fn push_within_prefix_keeps_compression() {
        let mut list = IdList::from_ids(&[0x10, 0x81], true);
        assert_eq!(list.prefix_len(), 7);
        list.push(0x2b);
        assert_eq!(list.prefix_len(), 7);
        assert_eq!(list.to_vec(), vec![0x10, 0x81, 0x2b]);
    }

    #[test]
    fn incompatible_push_falls_back_to_wider_suffix() {
        let mut list = IdList::from_ids(&[0x10, 0x81], true);
        assert_eq!(list.prefix_len(), 7);
        // 0x1_0000 differs from the others in byte 5, so only the top five
        // bytes stay common; the largest allowed prefix <= 5 is z = 4.
        list.push(0x1_0000);
        assert_eq!(list.prefix_len(), 4);
        assert_eq!(list.to_vec(), vec![0x10, 0x81, 0x1_0000]);
    }

    #[test]
    fn incompatible_push_can_fall_all_the_way_to_plain() {
        let mut list = IdList::from_ids(&[0x10, 0x81], true);
        list.push(0xffff_ffff_ffff_ffff);
        assert_eq!(list.prefix_len(), 0);
        assert_eq!(list.to_vec(), vec![0x10, 0x81, 0xffff_ffff_ffff_ffff]);
    }

    #[test]
    fn set_swap_remove_roundtrip_compressed() {
        let mut list = IdList::from_ids(&[0x10, 0x81, 0x2b, 0x5a], true);
        list.set(1, 0x99);
        assert_eq!(list.to_vec(), vec![0x10, 0x99, 0x2b, 0x5a]);
        let removed = list.swap_remove(0);
        assert_eq!(removed, 0x10);
        assert_eq!(list.to_vec(), vec![0x5a, 0x99, 0x2b]);
        let removed = list.swap_remove(2);
        assert_eq!(removed, 0x2b);
        assert_eq!(list.to_vec(), vec![0x5a, 0x99]);
    }

    #[test]
    fn insert_at_and_remove_at_shift_compressed() {
        let mut list = IdList::from_ids(&[0x10, 0x30], true);
        list.insert_at(1, 0x20);
        assert_eq!(list.to_vec(), vec![0x10, 0x20, 0x30]);
        list.insert_at(0, 0x05);
        assert_eq!(list.to_vec(), vec![0x05, 0x10, 0x20, 0x30]);
        list.insert_at(4, 0x40);
        assert_eq!(list.to_vec(), vec![0x05, 0x10, 0x20, 0x30, 0x40]);
        assert_eq!(list.remove_at(2), 0x20);
        assert_eq!(list.to_vec(), vec![0x05, 0x10, 0x30, 0x40]);
    }

    #[test]
    fn position_finds_ids() {
        let list = IdList::from_ids(&[7, 3, 9], false);
        assert_eq!(list.position(3), Some(1));
        assert_eq!(list.position(8), None);
    }

    #[test]
    fn compression_memory_savings_are_real() {
        use platod2gl_mem::DeepSize;
        // 256 clustered IDs: 1-byte suffixes vs 8-byte raw.
        let ids: Vec<u64> = (0..256u64).map(|i| 0xAABB_CCDD_EEFF_1100 | i).collect();
        let plain = IdList::from_ids(&ids, false);
        let packed = IdList::from_ids(&ids, true);
        assert_eq!(packed.prefix_len(), 7);
        assert_eq!(plain.heap_bytes(), 256 * 8);
        assert_eq!(packed.heap_bytes(), 256);
    }

    #[test]
    fn get_reconstructs_full_ids_across_widths() {
        for ids in [
            vec![0xAABB_CCDD_EEFF_1122u64, 0xAABB_CCDD_EEFF_1133],
            vec![0xAABB_CCDD_EE00_0000, 0xAABB_CCDD_EEFF_FFFF],
            vec![0xAABB_CCDD_0000_0000, 0xAABB_CCDD_FFFF_FFFF],
        ] {
            let list = IdList::from_ids(&ids, true);
            assert!(list.prefix_len() > 0);
            assert_eq!(list.to_vec(), ids);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Clustered IDs: a shared random high part with small offsets.
    fn clustered_ids() -> impl Strategy<Value = Vec<u64>> {
        (
            any::<u64>(),
            proptest::collection::vec(0u64..0x1_0000, 1..64),
        )
            .prop_map(|(base, offs)| {
                let base = base & 0xffff_ffff_ffff_0000;
                offs.iter().map(|o| base | o).collect()
            })
    }

    /// `base`'s top `z` bytes over each offset's low `8 - z` bytes.
    fn under_prefix(base: u64, z: u8, offs: &[u64]) -> Vec<u64> {
        let low = u64::MAX >> (8 * z);
        offs.iter().map(|o| (base & !low) | (o & low)).collect()
    }

    /// `position` agrees with a linear scan of the decoded list for every
    /// probe: listed ids, absent ids under and outside the prefix, and each
    /// listed id with its suffix kept but its prefix changed.
    fn check_position(list: &IdList, probes: &[u64]) -> Result<(), TestCaseError> {
        let ids = list.to_vec();
        let width = list.bytes_per_id();
        for &id in probes.iter().chain(&ids) {
            prop_assert_eq!(list.position(id), ids.iter().position(|&x| x == id));
        }
        if width < 8 {
            for &id in &ids {
                let foreign = id ^ (1 << (8 * width));
                prop_assert_eq!(
                    list.position(foreign),
                    None,
                    "prefix differs: {:#x}",
                    foreign
                );
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn roundtrip_any_ids(ids in proptest::collection::vec(any::<u64>(), 0..64)) {
            let list = IdList::from_ids(&ids, true);
            prop_assert_eq!(list.to_vec(), ids);
        }

        #[test]
        fn ops_match_reference_vec(
            init in clustered_ids(),
            ops in proptest::collection::vec((0u8..4, any::<u64>(), 0usize..128), 0..64),
        ) {
            let mut reference = init.clone();
            let mut list = IdList::from_ids(&init, true);
            for (kind, id, idx) in ops {
                match kind {
                    0 => { reference.push(id); list.push(id); }
                    1 if !reference.is_empty() => {
                        let i = idx % reference.len();
                        reference[i] = id;
                        list.set(i, id);
                    }
                    2 if !reference.is_empty() => {
                        let i = idx % reference.len();
                        reference.swap_remove(i);
                        list.swap_remove(i);
                    }
                    3 => {
                        let i = idx % (reference.len() + 1);
                        reference.insert(i, id);
                        list.insert_at(i, id);
                    }
                    _ => {}
                }
                prop_assert_eq!(list.len(), reference.len());
            }
            prop_assert_eq!(list.to_vec(), reference);
        }

        #[test]
        fn position_matches_linear_scan_at_every_width(
            zi in 0usize..4,
            base in any::<u64>(),
            offs in proptest::collection::vec(any::<u64>(), 1..64),
            strays in proptest::collection::vec(any::<u64>(), 0..16),
            edits in proptest::collection::vec((0u8..3, any::<bool>(), any::<u64>(), 0usize..128), 0..16),
        ) {
            let z = [0u8, 4, 6, 7][zi];
            let mut list = IdList::with_exact_z(&under_prefix(base, z, &offs), z);
            prop_assert_eq!(list.prefix_len(), z);
            let mut probes = strays.clone();
            probes.extend(under_prefix(base, z, &strays));
            check_position(&list, &probes)?;
            // Pushes and sets outside the prefix recode the list narrower.
            for (kind, inside, id, idx) in edits {
                let id = if inside { under_prefix(base, z, &[id])[0] } else { id };
                match kind {
                    0 => list.push(id),
                    1 if !list.is_empty() => list.set(idx % list.len(), id),
                    2 if !list.is_empty() => {
                        list.swap_remove(idx % list.len());
                    }
                    _ => {}
                }
                check_position(&list, &probes)?;
            }
        }

        #[test]
        fn compressed_never_larger_than_plain(ids in clustered_ids()) {
            use platod2gl_mem::DeepSize;
            let plain = IdList::from_ids(&ids, false);
            let packed = IdList::from_ids(&ids, true);
            prop_assert!(packed.heap_bytes() <= plain.heap_bytes());
        }
    }
}
