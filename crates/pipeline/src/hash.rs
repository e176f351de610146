//! The hasher behind the pipeline's own hash maps: the frontier dedup
//! index and the neighbor cache's generations.
//!
//! Their keys are vertex ids, edge types, fanouts and time windows that
//! the trainer's own seeds and graph service produce, and no map is ever
//! iterated, so the hash decides no output. SipHash's resistance to
//! crafted collisions buys nothing there and costs about three times this
//! hash per probe. Each word a key writes is folded in with one
//! multiply and rotate, and `finish` runs the state through
//! [`splitmix64`], so the low bits a table indexes by depend on every bit
//! of the key.

use platod2gl_graph::splitmix64;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`MixHasher`].
pub(crate) type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// Word-folding hasher with a splitmix64 finish (module docs).
#[derive(Default)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    /// Folds `bytes` eight at a time; the integer writes a key makes land
    /// here as one word each.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(26);
    }

    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platod2gl_graph::{EdgeType, TimeWindow, VertexId};
    use std::hash::{BuildHasher, Hash};

    fn hash(key: impl Hash) -> u64 {
        BuildHasherDefault::<MixHasher>::default().hash_one(key)
    }

    #[test]
    fn every_key_part_and_the_window_change_the_hash() {
        let key = |v, et, f, win| (VertexId(v), EdgeType(et), f as u32, win);
        let base = hash(key(7, 0, 4, None));
        let win = Some(TimeWindow::new(10, 20));
        for other in [
            key(8, 0, 4, None),
            key(7, 1, 4, None),
            key(7, 0, 5, None),
            key(7, 0, 4, win),
            key(7, 0, 4, Some(TimeWindow::new(10, 21))),
        ] {
            assert_ne!(hash(other), base);
        }
        assert_ne!(
            hash(key(7, 0, 4, win)),
            hash(key(7, 0, 4, Some(TimeWindow::new(11, 20))))
        );
    }

    #[test]
    fn sequential_ids_spread_over_the_low_bits() {
        // A table indexes by the low bits: 4096 consecutive vertex ids
        // must fill most of 4096 slots, as a uniform hash would (≈ 63 %).
        let mut seen = vec![false; 4096];
        for v in 0..4096u64 {
            seen[(hash((VertexId(v), None::<TimeWindow>)) & 4095) as usize] = true;
        }
        let filled = seen.iter().filter(|&&s| s).count();
        assert!(filled > 2400, "{filled} of 4096 slots");
    }
}
