//! The firing digest the experiment gates compare runs by.

/// FNV-1a (64-bit) over a stream of `u64` words, each fed as its eight
/// little-endian bytes. The `exp_*` binaries fold their canonical firing
/// streams through it, so byte-identical firings give equal digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiringDigest(u64);

impl FiringDigest {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// An empty digest (the FNV-1a offset basis).
    pub fn new() -> Self {
        FiringDigest(Self::OFFSET_BASIS)
    }

    /// Folds one word in, as its little-endian bytes.
    pub fn push(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest of everything pushed so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for FiringDigest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_64_vectors() {
        assert_eq!(FiringDigest::new().value(), 0xcbf2_9ce4_8422_2325);
        let mut d = FiringDigest::new();
        d.push_bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn push_feeds_little_endian_bytes() {
        let mut words = FiringDigest::new();
        words.push(0x0102);
        let mut bytes = FiringDigest::new();
        bytes.push_bytes(&[2, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(words, bytes);
    }
}
