//! CRC32C (Castagnoli) — the checksum guarding WAL and checkpoint records
//! and rpc frames.
//!
//! Chosen over CRC32 (IEEE) for its better error-detection properties and
//! because it is the de-facto storage-system standard (RocksDB WALs, ext4
//! metadata, iSCSI). Software slicing-by-8 table implementation, so the
//! code stays dependency-free: eight table lookups per 8 input bytes in
//! place of a dependent lookup per byte. A checkpoint passes every byte
//! through it twice (record and whole-file CRC), and byte-at-a-time it
//! was ~3 ns/byte, most of a checkpoint's or restore's time.

/// Reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 lookup tables, built at compile time: `TABLES[0]` is the
/// byte-at-a-time table, and `TABLES[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Incremental CRC32C hasher for streaming writers/readers.
#[derive(Clone, Copy, Debug)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    pub fn new() -> Self {
        Crc32c { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finish the checksum (the hasher itself stays usable: `finish` is a
    /// read-only finalization).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot convenience.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 / published CRC32C test vectors.
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(b"a"), 0xC1D0_4330);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..255u8).collect();
        let mut h = Crc32c::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32c(&data));
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let data = b"PlatoD2GL wal record payload".to_vec();
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
