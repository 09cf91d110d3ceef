//! Hand-rolled hashing, used for plan-cache fingerprints.
//!
//! The workspace builds with no external dependencies, so this provides
//! the one hash the serving layer needs: FNV-1a in 64 bits. It is not a
//! cryptographic hash — fingerprint collisions are tolerated by design
//! (the plan cache stores the canonical SQL text alongside the plan and
//! verifies it on every hit).

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }
}

impl Fnv64 {
    /// A hasher in its initial state.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb a `u64` (little-endian bytes, so values and raw bytes
    /// never alias accidentally only if callers keep domains separate).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Lets `#[derive(Hash)]` values feed the hasher field by field, with
/// no formatting on the way.
impl std::hash::Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        Fnv64::write(self, bytes);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64-bit hash of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Standard published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo").write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn std_hasher_feeds_the_same_state() {
        use std::hash::Hasher;
        let mut a = Fnv64::new();
        Hasher::write(&mut a, b"foobar");
        assert_eq!(Hasher::finish(&a), fnv64(b"foobar"));
    }

    #[test]
    fn write_u64_changes_state() {
        let mut a = Fnv64::new();
        let mut b = Fnv64::new();
        a.write_u64(1);
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }
}
