//! The uniform stream behind [`DenseMatrix::random`](crate::DenseMatrix::random),
//! and an eight-lane path that writes the same values faster.
//!
//! The stream is SplitMix64 seeding, xoshiro256++ (Blackman & Vigna,
//! "Scrambled Linear Pseudorandom Number Generators", ACM TOMS 2021) and
//! `(u >> 11) as f64 * 2^-53`, narrowed by [`Scalar::from_f64`].
//!
//! xoshiro256's state transition `T` is linear over GF(2), so
//! `T^k(s) = J(T)(s)` for `J(x) = x^k mod p(x)`, where `p` is the
//! characteristic polynomial of `T` (Haramoto et al., "Efficient Jump Ahead
//! for F2-Linear Random Number Generators", INFORMS J. Computing 2008).
//! The lane path splits `n` values into [`LANES`] contiguous runs of
//! `chunk = next_power_of_two(ceil(n / LANES))`, jumps lane `l` to
//! `T^(l * chunk)(s0)`, steps the lanes in lockstep and copies each lane's
//! values into its own run: every value lands where the sequential loop
//! would have put it.

// Only x86_64 has a lane path; elsewhere its pieces serve just the tests.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

use crate::scalar::Scalar;

/// States the lane path steps in lockstep: one 512-bit register of `u64`.
const LANES: usize = 8;

/// Lockstep steps buffered before each lane's values are copied to its run.
const BLOCK: usize = 64;

/// The fewest values [`fill`] hands to the lane path: 1,024 per lane, 4x
/// the 256 steps of each lane's jump. Measured once on a 2-vCPU AVX-512
/// host: the lanes break even at 2,048 values (256 per lane), run 1.4-1.5x
/// faster at 4,096, 2.0-2.3x at 8,192 and 2.6-3.4x at 131,072.
const LANE_MIN_VALUES: usize = LANES * 1024;

/// `p(x) - x^256`: bit `j` of word `j / 64` is the coefficient of `x^j`.
/// Found by Berlekamp–Massey on one output bit of the linear engine; the
/// tests check it against the reference implementation's jump constants.
const CHAR_POLY: [u64; 4] =
    [0x9d11_6f2b_b0f0_f001, 0x0280_002b_cefd_1a5e, 0x04b4_edcf_2625_9f85, 0x0003_c03c_3f3e_cb19];

/// `JUMP_POLYS[k] = x^(2^k) mod p(x)`: applied to a state, it advances the
/// stream by `2^k` steps.
const JUMP_POLYS: [[u64; 4]; 64] = jump_polys();

const fn jump_polys() -> [[u64; 4]; 64] {
    let mut table = [[0; 4]; 64];
    let mut power = [2, 0, 0, 0];
    let mut k = 0;
    while k < 64 {
        table[k] = power;
        power = square_mod_p(power);
        k += 1;
    }
    table
}

/// `a(x)^2 mod p(x)`. Squaring over GF(2) moves the coefficient of `x^j` to
/// `x^(2j)`; each surviving term `x^(256 + s)` is then replaced by
/// `x^s * (p(x) - x^256)`, from the top down.
const fn square_mod_p(a: [u64; 4]) -> [u64; 4] {
    let mut wide = [0u64; 8];
    let mut j = 0;
    while j < 256 {
        if (a[j / 64] >> (j % 64)) & 1 == 1 {
            wide[j / 32] |= 1 << (2 * j % 64);
        }
        j += 1;
    }
    let mut top = 511;
    while top >= 256 {
        if (wide[top / 64] >> (top % 64)) & 1 == 1 {
            wide[top / 64] ^= 1 << (top % 64);
            let (word, bit) = ((top - 256) / 64, (top - 256) % 64);
            let mut i = 0;
            while i < 4 {
                wide[word + i] ^= CHAR_POLY[i] << bit;
                if bit > 0 {
                    wide[word + i + 1] ^= CHAR_POLY[i] >> (64 - bit);
                }
                i += 1;
            }
        }
        top -= 1;
    }
    [wide[0], wide[1], wide[2], wide[3]]
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The xoshiro256++ state seeded from `seed` through SplitMix64.
fn seed_state(seed: u64) -> [u64; 4] {
    let mut sm = seed;
    [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)]
}

/// One xoshiro256++ step: the output of `s`, then `s = T(s)`.
#[inline(always)]
fn step(s: &mut [u64; 4]) -> u64 {
    let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

/// [`step`] on [`LANES`] states at once; `s[w][l]` is word `w` of lane `l`.
#[inline(always)]
fn step_lanes(s: &mut [[u64; LANES]; 4]) -> [u64; LANES] {
    let mut result = [0; LANES];
    for l in 0..LANES {
        result[l] = s[0][l].wrapping_add(s[3][l]).rotate_left(23).wrapping_add(s[0][l]);
        let t = s[1][l] << 17;
        s[2][l] ^= s[0][l];
        s[3][l] ^= s[1][l];
        s[1][l] ^= s[2][l];
        s[0][l] ^= s[3][l];
        s[2][l] ^= t;
        s[3][l] = s[3][l].rotate_left(45);
    }
    result
}

/// 53 random mantissa bits in `[0, 1)`.
#[inline(always)]
fn unit_f64(u: u64) -> f64 {
    (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// `J(T)(s)`: `s` advanced by `k` steps when `J = x^k mod p(x)`.
fn jump(mut s: [u64; 4], poly: &[u64; 4]) -> [u64; 4] {
    let mut acc = [0; 4];
    for word in poly {
        for bit in 0..64 {
            if (word >> bit) & 1 == 1 {
                for (a, v) in acc.iter_mut().zip(&s) {
                    *a ^= v;
                }
            }
            step(&mut s);
        }
    }
    acc
}

/// Fill `out` with the stream seeded by `seed`. Every host writes the same
/// bits; the lane path runs only where the host has AVX-512 and `out` is
/// long enough to repay the lanes' jumps.
pub(super) fn fill<T: Scalar>(out: &mut [T], seed: u64) {
    let s = seed_state(seed);
    if out.len() < LANE_MIN_VALUES || !try_fill_lanes(out, s) {
        fill_sequential(out, s);
    }
}

/// [`fill_lanes`] if this CPU supports it; `false` leaves `out` untouched.
#[cfg(target_arch = "x86_64")]
fn try_fill_lanes<T: Scalar>(out: &mut [T], s: [u64; 4]) -> bool {
    let supported = is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl");
    if supported {
        // SAFETY: the runtime check above found avx512f, avx512dq and
        // avx512vl on this CPU, the features `fill_lanes` is compiled for.
        unsafe { fill_lanes(out, s) };
    }
    supported
}

#[cfg(not(target_arch = "x86_64"))]
fn try_fill_lanes<T: Scalar>(_: &mut [T], _: [u64; 4]) -> bool {
    false
}

/// The stream from state `s`, one value at a time.
fn fill_sequential<T: Scalar>(out: &mut [T], mut s: [u64; 4]) {
    for v in out {
        *v = T::from_f64(unit_f64(step(&mut s)));
    }
}

/// The stream from state `s` in [`LANES`] jump-ahead lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn fill_lanes<T: Scalar>(out: &mut [T], s: [u64; 4]) {
    let n = out.len();
    let chunk = n.div_ceil(LANES).next_power_of_two();
    let poly = &JUMP_POLYS[chunk.trailing_zeros() as usize];
    // Lanes whose run starts past the end keep an all-zero state, which
    // steps to zeros that are never copied out.
    let mut lanes = [[0; LANES]; 4];
    let mut state = s;
    for l in (0..LANES).take_while(|l| l * chunk < n) {
        if l > 0 {
            state = jump(state, poly);
        }
        for (word, value) in lanes.iter_mut().zip(state) {
            word[l] = value;
        }
    }
    let mut block = [[T::ZERO; LANES]; BLOCK];
    let mut done = 0;
    while done < chunk {
        let len = BLOCK.min(chunk - done);
        for row in &mut block[..len] {
            let u = step_lanes(&mut lanes);
            for (v, u) in row.iter_mut().zip(u) {
                *v = T::from_f64(unit_f64(u));
            }
        }
        for l in (0..LANES).take_while(|l| l * chunk + done < n) {
            let begin = l * chunk + done;
            let run = &mut out[begin..(begin + len).min(n)];
            for (v, row) in run.iter_mut().zip(&block) {
                *v = row[l];
            }
        }
        done += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference implementation's `jump()` and `long_jump()` constants,
    /// `x^(2^128)` and `x^(2^192)` mod p(x): `CHAR_POLY` must reproduce both.
    const REFERENCE_JUMP: [u64; 4] = [
        0x180e_c6d3_3cfd_0aba,
        0xd5a6_1266_f0c9_392c,
        0xa958_2618_e03f_c9aa,
        0x39ab_dc45_29b1_661c,
    ];
    const REFERENCE_LONG_JUMP: [u64; 4] = [
        0x76e1_5d3e_fefd_cbbf,
        0xc500_4e44_1c52_2fb3,
        0x7771_0069_854e_e241,
        0x3910_9bb0_2acb_e635,
    ];

    #[test]
    fn char_poly_reproduces_the_reference_jump_constants() {
        let power = |k: usize| (63..k).fold(JUMP_POLYS[63], |p, _| square_mod_p(p));
        assert_eq!(power(128), REFERENCE_JUMP);
        assert_eq!(power(192), REFERENCE_LONG_JUMP);
    }

    #[test]
    fn each_jump_lands_on_the_stepped_state() {
        // Every jump this crate's tests take: the largest is 2^14, by the
        // lanes of `DenseMatrix`'s pinned 8192 x 16 digest.
        for seed in [0, 1, u64::MAX] {
            let start = seed_state(seed);
            let mut stepped = start;
            let mut steps = 0u64;
            for (k, poly) in JUMP_POLYS.iter().enumerate().take(15) {
                while steps < 1 << k {
                    step(&mut stepped);
                    steps += 1;
                }
                assert_eq!(jump(start, poly), stepped, "x^(2^{k}) from seed {seed}");
            }
        }
    }

    fn bits<T: Scalar>(values: &[T]) -> Vec<u64> {
        values.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    fn lanes_match_sequential<T: Scalar>() -> bool {
        // Around the cutoff, a partial last lane, 5 of 8 lanes started, a
        // run shorter than one block, and nothing at all.
        let totals = [
            LANE_MIN_VALUES - 1,
            LANE_MIN_VALUES,
            LANE_MIN_VALUES + 1,
            3001 * 7,
            4 * 4096 + 1,
            8 * 5,
            3,
            0,
        ];
        for total in totals {
            for seed in [0, 1, u64::MAX] {
                let mut sequential = vec![T::ZERO; total];
                fill_sequential(&mut sequential, seed_state(seed));
                let mut lanes = vec![T::ZERO; total];
                if !try_fill_lanes(&mut lanes, seed_state(seed)) {
                    return false;
                }
                assert!(bits(&lanes) == bits(&sequential), "{total} values from seed {seed}");
            }
        }
        true
    }

    #[test]
    fn lane_path_equals_the_sequential_path() {
        if !(lanes_match_sequential::<f32>() && lanes_match_sequential::<f64>()) {
            println!("skipping: host lacks avx512f/avx512dq/avx512vl, the lane path cannot run");
        }
    }
}
