//! Identifier encoding for the base store.
//!
//! The paper's base store (inherited from Wukong, §4.1) keys its key/value
//! pairs by `[vid | eid | d]`: a vertex ID, an edge (predicate) ID and an
//! in/out direction bit. Wukong+S uses 46-bit vertex IDs ("> 70 trillion
//! unique entities", §4.1 footnote 8), which leaves 17 bits for the
//! predicate and 1 bit for the direction in a single 64-bit key.

use crate::RdfError;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Number of bits in a vertex ID.
pub const VID_BITS: u32 = 46;
/// Number of bits in a predicate (edge-label) ID.
pub const PID_BITS: u32 = 17;
/// Largest representable vertex ID.
pub const MAX_VID: u64 = (1 << VID_BITS) - 1;
/// Largest representable predicate ID.
pub const MAX_PID: u64 = (1 << PID_BITS) - 1;

/// The reserved vertex ID of the index vertex (`0 INDEX` in Fig. 6).
///
/// Key `[INDEX_VID | pid | d]` maps to every normal vertex that has an edge
/// labelled `pid` in direction `d` — the "reverse mapping from a kind of
/// edge to the normal vertices" of §4.1.
pub const INDEX_VID: Vid = Vid(0);

/// A 46-bit vertex identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vid(pub u64);

impl Vid {
    /// Creates a vertex ID, checking the 46-bit bound.
    pub fn new(raw: u64) -> Result<Self, RdfError> {
        if raw > MAX_VID {
            Err(RdfError::VidOverflow(raw))
        } else {
            Ok(Vid(raw))
        }
    }

    /// Returns `true` for the reserved index vertex.
    pub fn is_index(self) -> bool {
        self == INDEX_VID
    }
}

/// A 17-bit predicate (edge-label) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(pub u64);

impl Pid {
    /// Creates a predicate ID, checking the 17-bit bound.
    pub fn new(raw: u64) -> Result<Self, RdfError> {
        if raw > MAX_PID {
            Err(RdfError::PidOverflow(raw))
        } else {
            Ok(Pid(raw))
        }
    }
}

/// Edge direction relative to the keyed vertex.
///
/// The encoding follows Fig. 6 of the paper: `0` is `in`, `1` is `out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir {
    /// The keyed vertex is the *object* of the triple.
    In = 0,
    /// The keyed vertex is the *subject* of the triple.
    Out = 1,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::In => Dir::Out,
            Dir::Out => Dir::In,
        }
    }
}

/// A packed `[vid | pid | dir]` store key (§4.1, Fig. 6).
///
/// The packing is `vid << 18 | pid << 1 | dir`, so keys order first by
/// vertex, then by predicate, then by direction — which keeps all keys of
/// one vertex adjacent in an ordered map and lets the sharding layer route
/// by vertex with a mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(u64);

impl Key {
    /// Packs a key from its parts.
    pub fn new(vid: Vid, pid: Pid, dir: Dir) -> Self {
        debug_assert!(vid.0 <= MAX_VID, "vid out of range");
        debug_assert!(pid.0 <= MAX_PID, "pid out of range");
        Key((vid.0 << (PID_BITS + 1)) | (pid.0 << 1) | dir as u64)
    }

    /// The index key for predicate `pid` in direction `dir` (vertex 0).
    pub fn index(pid: Pid, dir: Dir) -> Self {
        Key::new(INDEX_VID, pid, dir)
    }

    /// The vertex component.
    pub fn vid(self) -> Vid {
        Vid(self.0 >> (PID_BITS + 1))
    }

    /// The predicate component.
    pub fn pid(self) -> Pid {
        Pid((self.0 >> 1) & MAX_PID)
    }

    /// The direction component.
    pub fn dir(self) -> Dir {
        if self.0 & 1 == 0 {
            Dir::In
        } else {
            Dir::Out
        }
    }

    /// Whether this key addresses the index vertex.
    pub fn is_index(self) -> bool {
        self.vid().is_index()
    }

    /// The raw packed representation.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a key from [`Key::raw`] output.
    pub fn from_raw(raw: u64) -> Self {
        Key(raw)
    }
}

/// A map addressed by [`Key`], hashed with [`KeyHasher`].
///
/// Every `Key`-addressed map in the workspace uses this alias: the base
/// store's key/value table, the stream index and the transient slices'
/// adjacency, and the query layer's per-key memos.
pub type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// A deterministic hasher for [`Key`]s: one full-avalanche mix of the
/// packed `u64`.
///
/// A bare multiply is not enough: the low 18 bits of a key are its
/// `pid|dir`, so keys of one predicate differ only in their high bits,
/// and a multiply only carries entropy upwards — the low bits (which pick
/// the bucket) would collide. The murmur3 finalizer spreads every input
/// bit over every output bit, so both the bucket bits and the top bits
/// (the table's tag) vary with the vertex ID alone. It also needs no
/// per-process seed, so map layouts are reproducible from run to run.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, x: u64) {
        let mut h = self.0 ^ x;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        self.0 = h;
    }

    fn write(&mut self, bytes: &[u8]) {
        // `Key` hashes through `write_u64`; this covers any other input.
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        let k = Key::new(Vid(123_456), Pid(42), Dir::Out);
        assert_eq!(k.vid(), Vid(123_456));
        assert_eq!(k.pid(), Pid(42));
        assert_eq!(k.dir(), Dir::Out);
    }

    #[test]
    fn key_roundtrip_extremes() {
        let k = Key::new(Vid(MAX_VID), Pid(MAX_PID), Dir::In);
        assert_eq!(k.vid(), Vid(MAX_VID));
        assert_eq!(k.pid(), Pid(MAX_PID));
        assert_eq!(k.dir(), Dir::In);
    }

    #[test]
    fn index_key_is_index() {
        let k = Key::index(Pid(4), Dir::In);
        assert!(k.is_index());
        assert_eq!(k.vid(), INDEX_VID);
        assert_eq!(k.pid(), Pid(4));
    }

    #[test]
    fn vid_bound_checked() {
        assert!(Vid::new(MAX_VID).is_ok());
        assert_eq!(
            Vid::new(MAX_VID + 1),
            Err(RdfError::VidOverflow(MAX_VID + 1))
        );
    }

    #[test]
    fn pid_bound_checked() {
        assert!(Pid::new(MAX_PID).is_ok());
        assert_eq!(
            Pid::new(MAX_PID + 1),
            Err(RdfError::PidOverflow(MAX_PID + 1))
        );
    }

    #[test]
    fn dir_flip() {
        assert_eq!(Dir::In.flip(), Dir::Out);
        assert_eq!(Dir::Out.flip(), Dir::In);
    }

    #[test]
    fn keys_of_same_vertex_are_adjacent() {
        // Ordering by raw key must group by vertex first.
        let a = Key::new(Vid(5), Pid(MAX_PID), Dir::Out);
        let b = Key::new(Vid(6), Pid(0), Dir::In);
        assert!(a < b);
    }

    #[test]
    fn raw_roundtrip() {
        let k = Key::new(Vid(99), Pid(7), Dir::In);
        assert_eq!(Key::from_raw(k.raw()), k);
    }
    #[test]
    fn key_hasher_spreads_vid_only_keys_over_bucket_and_tag_bits() {
        use std::hash::BuildHasher;
        // 64 K keys of one predicate and direction differ only above bit
        // 18; their hashes must still fill the low (bucket) bits and the
        // top 7 (tag) bits.
        let build = BuildHasherDefault::<KeyHasher>::default();
        let n = 1usize << 16;
        let mut low = vec![0u32; n];
        let mut top = [0u32; 128];
        for v in 1..=n as u64 {
            let h = build.hash_one(Key::new(Vid(v), Pid(7), Dir::Out));
            low[(h as usize) & (n - 1)] += 1;
            top[(h >> 57) as usize] += 1;
        }
        // Uniform hashing of n keys into n buckets fills 1 - 1/e ≈ 63%.
        let filled = low.iter().filter(|&&c| c > 0).count();
        assert!(
            filled > n * 6 / 10,
            "low bits filled {filled} of {n} buckets"
        );
        // Each of the 128 tags expects 512 keys.
        let (min, max) = (top.iter().min().unwrap(), top.iter().max().unwrap());
        assert!(*min > 400 && *max < 624, "tag counts span {min}..{max}");
    }

    #[test]
    fn key_hasher_is_deterministic() {
        use std::hash::BuildHasher;
        let k = Key::new(Vid(42), Pid(3), Dir::In);
        let a = BuildHasherDefault::<KeyHasher>::default().hash_one(k);
        let b = BuildHasherDefault::<KeyHasher>::default().hash_one(k);
        assert_eq!(a, b);
        assert_ne!(a, k.raw());
    }
}
