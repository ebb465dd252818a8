//! One keyed fast hasher and one slice interner for the per-document hash
//! tables: node labels, text values and key tuples.
//!
//! Every document layer comes down to string equality — path evaluation
//! compares labels, `value()` and condition (2) of Definition 2.1 compare
//! text values — so these tables sit on the hot path of parsing, indexing
//! and key checking.  [`FoldState`] builds [`FoldHasher`]s: the
//! folded-multiply construction of foldhash (hashbrown's default hasher),
//! a 64×64→128-bit multiply whose two halves are XOR-folded.
//! [`SliceInterner`] stores each distinct slice once in a flat arena and
//! hands out dense `u32` ids.
//!
//! # Hashing untrusted input
//!
//! Documents, key sets and queries arrive from outside the program (the
//! server reads them off the wire), so an attacker may choose the strings
//! these tables hash.  Std's SipHash protects a map against HashDoS —
//! inputs crafted to collide and turn each lookup into a scan — through a
//! secret key.  `FoldState` keeps that protection the same way: its seed
//! words are drawn once per process from
//! [`std::collections::hash_map::RandomState`] (operating-system
//! randomness) and kept in a `OnceLock`, and every multiplier of the
//! construction is seed-derived, so no input is known to zero a product
//! or to collide without knowing the seed.  No fixed seed ships.  The
//! hasher mixes each write's length into the state, so `str` and slice
//! keys are prefix-free: `("ab", "c")` and `("a", "bc")` hash apart.
//!
//! Hash values never leave the process: they reach no wire, no file and no
//! output order (every table here is looked up, never iterated, or is
//! iterated by id).  A per-process seed therefore changes nothing a user
//! can see.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// The per-process seed words, drawn on first use.
static PROCESS_SEEDS: OnceLock<[u64; 3]> = OnceLock::new();

/// Builds [`FoldHasher`]s keyed by the per-process secret seed; see the
/// module docs.  A drop-in `S` for `HashMap<K, V, S>` and `HashSet<T, S>`.
#[derive(Debug, Clone, Copy)]
pub struct FoldState {
    /// The initial accumulator and the two secret multipliers.
    seeds: [u64; 3],
}

impl Default for FoldState {
    fn default() -> Self {
        let seeds = *PROCESS_SEEDS.get_or_init(|| {
            let random = RandomState::new();
            [0u64, 1, 2].map(|i| random.hash_one(i))
        });
        FoldState { seeds }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.seeds[0],
            seeds: [self.seeds[1], self.seeds[2]],
        }
    }
}

/// A keyed folded-multiply hasher; built by [`FoldState`].
#[derive(Debug, Clone)]
pub struct FoldHasher {
    acc: u64,
    seeds: [u64; 2],
}

/// The 64×64→128-bit product of `x` and `y`, its halves XOR-folded.
#[inline(always)]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

#[inline(always)]
fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

#[inline(always)]
fn read_u32(bytes: &[u8]) -> u64 {
    u64::from(u32::from_le_bytes(
        bytes[..4].try_into().expect("four bytes"),
    ))
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        // The length moves the secret accumulator before the input meets
        // it, so inputs of different lengths never line up.
        let mut s0 = self.acc.rotate_right(len as u32);
        let mut s1 = self.seeds[0];
        if len <= 16 {
            if len >= 8 {
                s0 ^= read_u64(bytes);
                s1 ^= read_u64(&bytes[len - 8..]);
            } else if len >= 4 {
                s0 ^= read_u32(bytes);
                s1 ^= read_u32(&bytes[len - 4..]);
            } else if len > 0 {
                s0 ^= u64::from(bytes[0]);
                s1 ^= u64::from(bytes[len - 1]) << 8 | u64::from(bytes[len / 2]);
            }
        } else {
            let mut rest = bytes;
            while rest.len() > 16 {
                s0 = folded_multiply(s0 ^ read_u64(rest), s1 ^ read_u64(&rest[8..]));
                s1 = s1.wrapping_add(self.seeds[1]);
                rest = &rest[16..];
            }
            s0 ^= read_u64(&bytes[len - 16..]);
            s1 ^= read_u64(&bytes[len - 8..]);
        }
        self.acc = folded_multiply(s0, s1);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.acc = folded_multiply(self.acc ^ i, self.seeds[1]);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.acc
    }
}

/// No id: the end of a [`SliceInterner`] collision chain.
const END: u32 = u32::MAX;

/// Interns slices of `T` to dense `u32` ids (`0..len`, in first-intern
/// order).
///
/// Each distinct slice is stored once, back to back in one flat arena;
/// `ends` gives each id's extent, so interning a slice already seen
/// allocates nothing.  A map from the slice's hash to the newest id with
/// that hash, plus a `next` chain through older ids with the same hash,
/// finds the candidates, and each candidate is verified by comparing its
/// slice in the arena — a hash collision costs a comparison, never a wrong
/// id.  Arity 0 is an ordinary slice.  Arena offsets are `usize`, so the
/// arena may outgrow `u32`.
#[derive(Debug, Clone)]
pub struct SliceInterner<T, S = FoldState> {
    arena: Vec<T>,
    /// Id → exclusive end of its slice in `arena` (the start is the
    /// previous id's end, or 0).
    ends: Vec<usize>,
    /// Id → the next older id with the same hash, or [`END`].
    next: Vec<u32>,
    /// Hash → the newest id carrying it.
    heads: HashMap<u64, u32, FoldState>,
    state: S,
}

impl<T, S: Default> Default for SliceInterner<T, S> {
    fn default() -> Self {
        SliceInterner {
            arena: Vec::new(),
            ends: Vec::new(),
            next: Vec::new(),
            heads: HashMap::default(),
            state: S::default(),
        }
    }
}

impl<T: Copy + Eq + Hash, S: BuildHasher> SliceInterner<T, S> {
    /// The number of distinct slices interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if nothing is interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The id of `slice`, and whether it was interned by this call.
    #[inline]
    pub fn intern(&mut self, slice: &[T]) -> (u32, bool) {
        let hash = self.state.hash_one(slice);
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != END)
            .expect("slice interner id overflow");
        let older = match self.heads.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(id);
                END
            }
            Entry::Occupied(mut slot) => {
                let mut candidate = *slot.get();
                while candidate != END {
                    if stored(&self.arena, &self.ends, candidate as usize) == slice {
                        return (candidate, false);
                    }
                    candidate = self.next[candidate as usize];
                }
                slot.insert(id)
            }
        };
        self.arena.extend_from_slice(slice);
        self.ends.push(self.arena.len());
        self.next.push(older);
        (id, true)
    }

    /// The slice behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this interner.
    #[inline]
    pub fn get(&self, id: u32) -> &[T] {
        stored(&self.arena, &self.ends, id as usize)
    }

    /// Forgets every slice, keeping the capacity for reuse.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.ends.clear();
        self.next.clear();
        self.heads.clear();
    }
}

/// The slice of id `i` in an interner's arena.
#[inline(always)]
fn stored<'a, T>(arena: &'a [T], ends: &[usize], i: usize) -> &'a [T] {
    let start = if i == 0 { 0 } else { ends[i - 1] };
    &arena[start..ends[i]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A state keyed by `seed` instead of the process seed: the seed words
    /// are a splitmix64 stream from `seed`.
    fn with_seed(seed: u64) -> FoldState {
        let mut x = seed;
        FoldState {
            seeds: [0, 1, 2].map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }),
        }
    }

    /// Hashes every input to one value, so that every slice an interner
    /// sees shares one collision chain.
    #[derive(Debug, Default)]
    struct Constant;

    impl BuildHasher for Constant {
        type Hasher = ConstantHasher;
        fn build_hasher(&self) -> ConstantHasher {
            ConstantHasher
        }
    }

    struct ConstantHasher;

    impl Hasher for ConstantHasher {
        fn write(&mut self, _: &[u8]) {}
        fn finish(&self) -> u64 {
            7
        }
    }

    #[test]
    fn equal_inputs_hash_equal() {
        let state = FoldState::default();
        let long = "a label longer than sixteen bytes, and then some more";
        for s in ["", "a", "abc", "abcd", "abcdefgh", "abcdefghijklmnop", long] {
            assert_eq!(state.hash_one(s), state.hash_one(s.to_string()));
            assert_eq!(
                state.hash_one(s.as_bytes()),
                FoldState::default().hash_one(s.as_bytes())
            );
        }
        assert_eq!(
            state.hash_one([1u32, 2, 3]),
            state.hash_one(vec![1u32, 2, 3])
        );
    }

    #[test]
    fn different_seeds_hash_one_input_differently() {
        let (a, b) = (with_seed(1), with_seed(2));
        for s in [
            "",
            "x",
            "isbn",
            "Getting Acquainted",
            "a much longer text value",
        ] {
            assert_ne!(a.hash_one(s), b.hash_one(s), "{s:?}");
        }
        assert_ne!(a.hash_one([7u32]), b.hash_one([7u32]));
    }

    #[test]
    fn writes_are_prefix_free_and_ordered() {
        let state = FoldState::default();
        assert_ne!(state.hash_one(("ab", "c")), state.hash_one(("a", "bc")));
        assert_ne!(
            state.hash_one(("", "abcdefghijklmnopq")),
            state.hash_one(("abcdefghijklmnopq", ""))
        );
        assert_ne!(state.hash_one([1u32, 2]), state.hash_one([2u32, 1]));
        assert_ne!(state.hash_one(&[1u32][..]), state.hash_one(&[1u32, 0][..]));
        assert_ne!(state.hash_one(&b"ab"[..]), state.hash_one(&b"ab\0"[..]));
        // Zero padding reads the same words: only the length sets them apart.
        assert_ne!(state.hash_one("abcd"), state.hash_one("abcd\0\0\0\0"));
    }

    #[test]
    fn forced_collisions_still_intern_by_value() {
        let mut interner: SliceInterner<u32, Constant> = SliceInterner::default();
        let slices: [&[u32]; 6] = [&[], &[1], &[1, 2], &[2, 1], &[1, 2, 3], &[0]];
        let ids: Vec<u32> = slices.iter().map(|s| interner.intern(s).0).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, 5], "distinct slices get distinct ids");
        assert_eq!(interner.heads.len(), 1, "one shared chain");
        for (s, &id) in slices.iter().zip(&ids) {
            assert_eq!(interner.intern(s), (id, false), "equal slices, equal ids");
            assert_eq!(interner.get(id), *s);
        }
        assert_eq!(interner.len(), slices.len());
        interner.clear();
        assert!(interner.is_empty());
        assert_eq!(interner.intern(&[1, 2]), (0, true));
        assert_eq!(interner.intern(&[]), (1, true));
    }

    proptest! {
        #[test]
        fn interning_matches_a_map_of_owned_slices(
            slices in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..4), 0..40)
        ) {
            let mut interner: SliceInterner<u8> = SliceInterner::default();
            let mut oracle: HashMap<Vec<u8>, u32> = HashMap::new();
            for s in &slices {
                let fresh = oracle.len() as u32;
                let want = *oracle.entry(s.clone()).or_insert(fresh);
                prop_assert_eq!(interner.intern(s), (want, want == fresh));
                prop_assert_eq!(interner.get(want), &s[..]);
            }
            prop_assert_eq!(interner.len(), oracle.len());
        }
    }
}
