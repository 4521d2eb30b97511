//! Seeded randomness and timing helpers shared by the workloads.

use std::time::{Duration, Instant};

/// SplitMix64: every input of a run (matrix seeds, dense-input seeds, engine
/// draws, delta positions) derives from `--seed` through this generator, so
/// the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform `f32` in `[0.5, 1.5)`, the generators' non-zero value range.
    pub fn value(&mut self) -> f32 {
        0.5 + (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// An independent sub-seed of `seed` for the stream named by `salt`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Busy-wait: the caller's own work between paced calls. Spinning (not
/// sleeping) keeps the calling core hot while the pool's workers park. The
/// loop reads the clock and nothing else — no `spin_loop` hint, because a
/// PAUSE loop tells a hypervisor the core is idle-waiting, and the work this
/// stands in for (a layer's dense arithmetic) does not.
pub fn spin_for(duration: Duration) {
    let start = Instant::now();
    while start.elapsed() < duration {}
}

pub fn micros(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// FNV-1a over a reply's raw bytes: two replies to the same request must be
/// bit-identical, so after the first is checked against the oracle the rest
/// are compared by this digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    // Eight bytes per step keeps the digest cheap next to a 512 KB reply.
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }
    for &byte in chunks.remainder() {
        hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

pub fn f32_bytes(values: &[f32]) -> &[u8] {
    // SAFETY: any f32 slice is valid to view as bytes (no padding, u8 has
    // alignment 1); the length is the slice's exact byte size.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            assert!(r.below(5) < 5);
            let v = r.value();
            assert!((0.5..1.5).contains(&v));
        }
    }

    #[test]
    fn digest_sees_every_byte() {
        let mut bytes = vec![0u8; 37];
        let base = fnv1a(&bytes);
        for i in 0..bytes.len() {
            bytes[i] = 1;
            assert_ne!(fnv1a(&bytes), base, "byte {i} ignored");
            bytes[i] = 0;
        }
    }
}
