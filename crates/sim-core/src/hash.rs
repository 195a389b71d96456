//! One fast hasher for all model state.
//!
//! Every map and set in the model is keyed by ids, tuples of ids, or labels
//! the program itself writes — never by input chosen from outside — so
//! SipHash's collision resistance buys nothing while costing a large share of
//! host time on the guest data path. [`FastMap`] and [`FastSet`] use an
//! FxHash-style multiply-rotate hasher instead. They are the only map types
//! the model uses (the workspace `clippy.toml` disallows std's defaults).
//!
//! Map iteration order must never drive event order: code that walks a map
//! to schedule or emit anything sorts first. To keep such a leak visible,
//! debug builds seed each map's hasher from a process-global counter, as
//! std's `RandomState` does, so `cargo test` still sees varying iteration
//! orders. Release builds (experiments, benchmarks) use one fixed hasher.
//!
//! Digests and label-derived seeds that must stay stable across builds and
//! platforms use [`fnv1a`] instead, byte for byte.

use std::hash::{BuildHasher, Hasher};

/// A `HashMap` using [`FastState`].
#[allow(clippy::disallowed_types)] // the one place std's maps are named
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastState>;

/// A `HashSet` using [`FastState`].
#[allow(clippy::disallowed_types)]
pub type FastSet<T> = std::collections::HashSet<T, FastState>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// FxHash-style word hasher: `h = (rotl(h, 5) ^ word) * K` per word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // The tail's length rides in the free top byte, so trailing
            // zero bytes still change the hash.
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            w[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply mixes upward, so rotate the well-mixed high bits into
    /// the low bits the table indexes by.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// The [`BuildHasher`] behind [`FastMap`]/[`FastSet`]: fixed in release
/// builds, seeded per map in debug builds (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct FastState {
    #[cfg(debug_assertions)]
    seed: u64,
}

impl Default for FastState {
    #[inline]
    fn default() -> Self {
        #[cfg(debug_assertions)]
        {
            use std::sync::atomic::{AtomicU64, Ordering};
            // A statistic-like counter: it publishes no other data.
            static NEXT: AtomicU64 = AtomicU64::new(0);
            FastState {
                seed: crate::rng::splitmix64(NEXT.fetch_add(1, Ordering::Relaxed)),
            }
        }
        #[cfg(not(debug_assertions))]
        FastState {}
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        #[cfg(debug_assertions)]
        let hash = self.seed;
        #[cfg(not(debug_assertions))]
        let hash = 0;
        FastHasher { hash }
    }
}

/// The FNV-1a-64 offset basis: the hash of no bytes, and the start of
/// every running [`fnv1a`] digest.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Fold `bytes` into the running FNV-1a-64 hash `h`. Start from
/// [`FNV_BASIS`]; feeding a message in pieces gives the same hash as
/// feeding it whole. RNG label seeds, image checksums and every pinned
/// digest are built on this one function.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn fixed<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FastHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    /// The unseeded hasher is a pure function of the key: these values are
    /// what every release-build map uses, on every platform and run.
    #[test]
    fn unseeded_outputs_are_pinned() {
        assert_eq!(fixed(&7u32), 0x9d12_ca91_8e61_d971);
        assert_eq!(fixed(&7u64), 0x9d12_ca91_8e61_d971);
        assert_eq!(fixed(&(3usize, 9u32)), 0x58e3_d4cb_fdd7_7941);
        assert_eq!(fixed("net.loss"), 0x08ea_2320_5d47_cea9);
        assert_ne!(fixed("ab"), fixed("ab\0"));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_maps_use_the_unseeded_hasher() {
        let s = FastState::default();
        assert_eq!(s.hash_one(7u32), fixed(&7u32));
        assert_eq!(s.hash_one(7u64), fixed(&7u64));
        assert_eq!(s.hash_one((3usize, 9u32)), fixed(&(3usize, 9u32)));
        assert_eq!(s.hash_one("net.loss"), fixed("net.loss"));
        assert_eq!(std::mem::size_of::<FastState>(), 0);
    }

    /// Debug builds vary the per-map seed so an iteration-order leak stays
    /// detectable: two maps holding equal contents can walk differently.
    #[cfg(debug_assertions)]
    #[test]
    fn debug_maps_can_iterate_differently() {
        let build = || -> FastMap<u64, ()> { (0..64).map(|k| (k, ())).collect() };
        let first: Vec<u64> = build().into_keys().collect();
        let differs = (0..32).any(|_| build().into_keys().collect::<Vec<_>>() != first);
        assert!(differs, "32 equal maps all iterated in one order");
    }

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(fnv1a(FNV_BASIS, b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(FNV_BASIS, b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a(fnv1a(FNV_BASIS, b"foo"), b"bar"), 0x85944171f73967e8);
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FastMap<(usize, u32), &str> = FastMap::default();
        m.insert((1, 2), "a");
        m.insert((2, 1), "b");
        assert_eq!(m[&(1, 2)], "a");
        assert_eq!(m.remove(&(2, 1)), Some("b"));
        let s: FastSet<u64> = (0..1000).collect();
        assert!((0..1000).all(|k| s.contains(&k)));
        assert!(!s.contains(&1000));
    }
}
