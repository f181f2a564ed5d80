//! Canonical content hashing for cache keys.
//!
//! The serving layer (`systolic-service`) caches analysis results keyed by
//! the *content* of a request — program, topology and analysis
//! configuration — so identical requests from different clients share one
//! cached plan. This module provides the hashing substrate:
//!
//! * [`ContentHasher`] — a deterministic 128-bit FNV-1a style hasher whose
//!   output is stable across processes and runs (unlike
//!   [`std::hash::Hasher`] with `RandomState`, which is seeded per
//!   process);
//! * [`CanonicalHash`] — implemented by model types that can feed a
//!   canonical byte encoding of themselves into the hasher.
//!
//! The encoding is injective over the constructor arguments of each type
//! (every field is written length- or tag-prefixed), so two values collide
//! only if the 128-bit hash itself collides. The hash is *structural*: a
//! [`Topology::graph`](crate::Topology::graph) that happens to describe a
//! linear array hashes differently from [`Topology::linear`]
//! (crate::Topology::linear), mirroring `PartialEq` on `Topology`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

use crate::{CellProgram, OpKind, Program, Topology};

const OFFSET_LO: u64 = 0xcbf2_9ce4_8422_2325;
// A second, independent FNV stream seeded differently so the combined
// output is 128 bits wide — collision-safe for cache keys at any realistic
// request volume.
const OFFSET_HI: u64 = 0x6c62_272e_07bb_0142;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// A deterministic, process-independent 128-bit content hasher.
///
/// # Examples
///
/// ```
/// use systolic_model::ContentHasher;
///
/// let mut a = ContentHasher::new();
/// a.write_str("hello");
/// let mut b = ContentHasher::new();
/// b.write_str("hello");
/// assert_eq!(a.finish(), b.finish());
///
/// let mut c = ContentHasher::new();
/// c.write_str("world");
/// assert_ne!(a.finish(), c.finish());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ContentHasher {
    lo: u64,
    hi: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// A fresh hasher in its initial state.
    #[must_use]
    pub fn new() -> Self {
        ContentHasher {
            lo: OFFSET_LO,
            hi: OFFSET_HI,
        }
    }

    /// Feeds raw bytes. Prefer the typed writers, which add framing.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(PRIME);
            self.hi = (self.hi ^ u64::from(b)).wrapping_mul(PRIME.wrapping_add(2));
        }
    }

    /// Feeds one byte (used for enum/variant tags).
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Feeds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` (widened to `u64` so the encoding is
    /// platform-independent).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `i64` in little-endian byte order.
    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a string, length-prefixed so `("ab", "c")` and `("a", "bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The 128-bit digest of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// 64-bit FNV-1a as a [`BuildHasher`], for the name tables that
/// [`ProgramBuilder`](crate::ProgramBuilder) and [`Program::new`] consult
/// once per name: names are a few bytes long, where the default SipHash's
/// set-up costs more than the lookup. It takes no per-process seed, so a
/// client can craft colliding names; that costs at worst the quadratic
/// lookups the tables replaced, within the [`SizeLimit`](crate::SizeLimit)
/// bounds.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct FnvBuildHasher;

/// The running state of one [`FnvBuildHasher`] hash.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(OFFSET_LO)
    }
}

/// A name-keyed table hashed with [`FnvBuildHasher`].
pub(crate) type NameMap<V> = HashMap<String, V, FnvBuildHasher>;

/// A set of borrowed names hashed with [`FnvBuildHasher`].
pub(crate) type NameSet<'a> = HashSet<&'a str, FnvBuildHasher>;

/// Types with a canonical, process-independent content encoding.
///
/// # Examples
///
/// ```
/// use systolic_model::{parse_program, CanonicalHash, ContentHasher};
///
/// # fn main() -> Result<(), systolic_model::ModelError> {
/// let text = "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n";
/// let p = parse_program(text)?;
/// let q = parse_program(text)?;
/// assert_eq!(p.content_hash(), q.content_hash());
/// # Ok(())
/// # }
/// ```
pub trait CanonicalHash {
    /// Feeds this value's canonical encoding into `hasher`.
    fn canonical_hash(&self, hasher: &mut ContentHasher);

    /// Convenience: the standalone 128-bit digest of this value.
    #[must_use]
    fn content_hash(&self) -> u128 {
        let mut h = ContentHasher::new();
        self.canonical_hash(&mut h);
        h.finish()
    }
}

impl CanonicalHash for Program {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_u8(b'P');
        hasher.write_usize(self.num_cells());
        for cell in self.cell_ids() {
            hasher.write_str(self.cell_name(cell));
        }
        hasher.write_usize(self.num_messages());
        for decl in self.messages() {
            hasher.write_str(decl.name());
            hasher.write_usize(decl.sender().index());
            hasher.write_usize(decl.receiver().index());
        }
        for cp in self.cells() {
            cp.canonical_hash(hasher);
        }
    }
}

impl CanonicalHash for CellProgram {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_usize(self.len());
        for op in self.iter() {
            hasher.write_u8(match op.kind() {
                OpKind::Write => b'W',
                OpKind::Read => b'R',
            });
            hasher.write_usize(op.message().index());
        }
    }
}

impl CanonicalHash for Topology {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_u8(b'T');
        // The spec string is injective over the topology's construction
        // (kind + dimensions + edge list), so hashing it is canonical.
        hasher.write_str(&self.spec());
    }
}

impl CanonicalHash for crate::Route {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_u8(b'r');
        hasher.write_usize(self.cells().len());
        for cell in self.cells() {
            hasher.write_usize(cell.index());
        }
    }
}

impl CanonicalHash for crate::MessageRoutes {
    fn canonical_hash(&self, hasher: &mut ContentHasher) {
        hasher.write_u8(b'R');
        hasher.write_usize(self.len());
        for (_, route) in self.iter() {
            route.canonical_hash(hasher);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_program, CellId};

    #[test]
    fn hasher_is_deterministic_and_order_sensitive() {
        let mut a = ContentHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = ContentHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());

        let mut c = ContentHasher::new();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn string_framing_prevents_concatenation_collisions() {
        let mut a = ContentHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = ContentHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn equal_programs_hash_equal() {
        let text = "cells 3\n\
                    message A: c0 -> c1\n\
                    message B: c1 -> c2\n\
                    program c0 { W(A)*2 }\n\
                    program c1 { R(A)*2 W(B) }\n\
                    program c2 { R(B) }\n";
        let p = parse_program(text).unwrap();
        let q = parse_program(text).unwrap();
        assert_eq!(p.content_hash(), q.content_hash());
    }

    #[test]
    fn op_order_changes_the_hash() {
        let p = parse_program(
            "cells 2\nmessage A: c0 -> c1\nmessage B: c0 -> c1\n\
             program c0 { W(A) W(B) }\nprogram c1 { R(A) R(B) }\n",
        )
        .unwrap();
        let q = parse_program(
            "cells 2\nmessage A: c0 -> c1\nmessage B: c0 -> c1\n\
             program c0 { W(B) W(A) }\nprogram c1 { R(A) R(B) }\n",
        )
        .unwrap();
        assert_ne!(p.content_hash(), q.content_hash());
    }

    #[test]
    fn message_names_change_the_hash() {
        let p = parse_program(
            "cells 2\nmessage A: c0 -> c1\nprogram c0 { W(A) }\nprogram c1 { R(A) }\n",
        )
        .unwrap();
        let q = parse_program(
            "cells 2\nmessage X: c0 -> c1\nprogram c0 { W(X) }\nprogram c1 { R(X) }\n",
        )
        .unwrap();
        assert_ne!(p.content_hash(), q.content_hash());
    }

    #[test]
    fn topology_kinds_hash_distinctly() {
        let hashes = [
            Topology::linear(4).content_hash(),
            Topology::ring(4).content_hash(),
            Topology::mesh(2, 2).content_hash(),
            Topology::graph(4, [(CellId::new(0), CellId::new(1))])
                .unwrap()
                .content_hash(),
            Topology::linear(5).content_hash(),
        ];
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(
            Topology::mesh(2, 3).content_hash(),
            Topology::mesh(2, 3).content_hash()
        );
    }
}
