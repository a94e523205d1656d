//! Input corruption shared by the fail-loudly tests of the fabric's
//! frames and of corpus snapshots.

use proptest::collection;
use proptest::prelude::*;

/// One corruption of a byte string.
#[derive(Debug)]
pub enum Mutation {
    /// Cut the input short; the length is taken modulo the input's.
    Truncate(usize),
    /// Flip 1–3 bits; each bit index is taken modulo the input's bits.
    FlipBits(Vec<usize>),
    /// Overwrite one byte; the index is taken modulo the input's length.
    Replace(usize, u8),
}

impl Mutation {
    /// Each kind of corruption, equally likely.
    pub fn strategy() -> impl Strategy<Value = Mutation> {
        prop_oneof![
            any::<usize>().prop_map(Mutation::Truncate),
            collection::vec(any::<usize>(), 1..4).prop_map(Mutation::FlipBits),
            (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Replace(at, byte)),
        ]
    }

    /// Applies the corruption to a non-empty `bytes`.
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        let len = bytes.len();
        match self {
            Mutation::Truncate(keep) => bytes.truncate(keep % len),
            Mutation::FlipBits(bits) => {
                for bit in bits {
                    let bit = bit % (len * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            Mutation::Replace(at, byte) => bytes[at % len] = *byte,
        }
    }
}
