//! Small sampling helpers over type-erased random number generators.
//!
//! Processes and link processes receive their randomness as `&mut dyn
//! RngCore`; these helpers provide the couple of distributions the broadcast
//! algorithms need without requiring the sized-only parts of the `Rng`
//! extension trait.

use rand::RngCore;

/// Draws a Bernoulli sample: returns `true` with probability `p`.
///
/// Values of `p` at or below 0 always return `false`; values at or above 1
/// always return `true` (and consume no randomness in either case).
///
/// # Example
///
/// ```
/// use dradio_sim::sampling::bernoulli;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// assert!(!bernoulli(&mut rng, 0.0));
/// assert!(bernoulli(&mut rng, 1.0));
/// ```
pub fn bernoulli(rng: &mut dyn RngCore, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    uniform_f64(rng) < p
}

/// Sets each entry of `out`, in order, to the sample [`bernoulli`]`(rng, p)`
/// would draw for it, and leaves `rng` where those calls would: one coin
/// per entry for `0 < p < 1`, none otherwise. The coins are read in bulk
/// through `fill_bytes`, whose bytes are those of successive `next_u64`
/// words (the `RngCore` default, which `ChaCha8Rng` keeps).
///
/// # Example
///
/// ```
/// use dradio_sim::sampling::{bernoulli, bernoulli_fill};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// let (mut bulk, mut one_by_one) = (ChaCha8Rng::seed_from_u64(3), ChaCha8Rng::seed_from_u64(3));
/// let mut samples = [false; 1000];
/// bernoulli_fill(&mut bulk, 0.3, &mut samples);
/// assert!(samples.iter().all(|&s| s == bernoulli(&mut one_by_one, 0.3)));
/// ```
pub fn bernoulli_fill(rng: &mut dyn RngCore, p: f64, out: &mut [bool]) {
    if p <= 0.0 || p >= 1.0 {
        out.fill(p >= 1.0);
        return;
    }
    let threshold = bernoulli_threshold(p);
    for_each_coin(rng, out, |sample, coin| *sample = coin < threshold);
}

/// Coins [`for_each_coin`] reads from the stream at once.
const BULK_COINS: usize = 256;

// lint: hot-path
/// Passes each entry of `slots` to `each`, in order, with one coin: the 53
/// bits `next_u64() >> 11` that [`uniform_f64`] scales, of the very words
/// one `next_u64` call per entry would draw, read [`BULK_COINS`] at a time
/// through `fill_bytes` (see [`bernoulli_fill`]).
pub(crate) fn for_each_coin<T>(
    rng: &mut dyn RngCore,
    slots: &mut [T],
    mut each: impl FnMut(&mut T, u64),
) {
    let mut coins = [[0u8; 8]; BULK_COINS];
    for chunk in slots.chunks_mut(BULK_COINS) {
        let coins = &mut coins[..chunk.len()];
        rng.fill_bytes(coins.as_flattened_mut());
        for (slot, coin) in chunk.iter_mut().zip(coins.iter()) {
            each(slot, u64::from_le_bytes(*coin) >> 11);
        }
    }
}
// lint: end-hot-path

/// The integer threshold `T` with
/// `uniform_f64(x) < p  ⟺  (x >> 11) < T` for `0 < p < 1`, so the
/// engine can replay [`bernoulli`] on raw words without the float.
///
/// `uniform_f64` is `(x >> 11) as f64 * 2⁻⁵³`; the 53-bit integer converts
/// exactly and the power-of-two scale is lossless, so the comparison is the
/// real-number `k < p·2⁵³` — which holds iff `k < ceil(p·2⁵³)` whether or
/// not `p·2⁵³` is an integer. `p·2⁵³` itself is an exact f64 product
/// (power-of-two scaling of a finite f64 below 1).
pub(crate) fn bernoulli_threshold(p: f64) -> u64 {
    (p * 9_007_199_254_740_992.0).ceil() as u64
}

/// Draws a uniform floating point value in `[0, 1)` with 53 bits of
/// precision.
pub fn uniform_f64(rng: &mut dyn RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draws a uniform index in `[0, bound)`.
///
/// # Panics
///
/// Panics if `bound == 0`.
pub fn uniform_index(rng: &mut dyn RngCore, bound: usize) -> usize {
    assert!(bound > 0, "bound must be positive");
    // Rejection-free modulo is fine here: bounds are tiny (≤ n) compared to
    // 2^64, so the bias is negligible for simulation purposes.
    (rng.next_u64() % bound as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn bernoulli_extremes_are_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..10 {
            assert!(!bernoulli(&mut rng, 0.0));
            assert!(!bernoulli(&mut rng, -1.0));
            assert!(bernoulli(&mut rng, 1.0));
            assert!(bernoulli(&mut rng, 2.0));
        }
    }

    #[test]
    fn bernoulli_matches_probability_empirically() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let trials = 20_000;
        for &p in &[0.1, 0.5, 0.9] {
            let hits = (0..trials).filter(|_| bernoulli(&mut rng, p)).count();
            let rate = hits as f64 / trials as f64;
            assert!((rate - p).abs() < 0.02, "p = {p}, rate = {rate}");
        }
    }

    #[test]
    fn uniform_f64_is_in_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = uniform_f64(&mut rng);
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_index_respects_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut seen = [false; 7];
        for _ in 0..2000 {
            let i = uniform_index(&mut rng, 7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn bernoulli_threshold_matches_scalar_compare() {
        let scale = 1.0 / 9_007_199_254_740_992.0;
        let rates = [
            0.5,
            0.1,
            1.0 / 3.0,
            0.25,
            1e-12,
            1.0 - 1e-12,
            123.0 / 9_007_199_254_740_992.0,
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..4096 {
            let x = rng.next_u64();
            for &rate in &rates {
                let scalar = ((x >> 11) as f64 * scale) < rate;
                let by_threshold = (x >> 11) < bernoulli_threshold(rate);
                assert_eq!(scalar, by_threshold, "x {x} rate {rate}");
            }
        }
        // Boundary cases around an exact k/2^53 rate.
        for k in [1u64, 2, 123, (1 << 53) - 1] {
            let rate = k as f64 * scale;
            for probe in [k.saturating_sub(1), k, k + 1] {
                let x = probe << 11;
                let scalar = ((x >> 11) as f64 * scale) < rate;
                let by_threshold = (x >> 11) < bernoulli_threshold(rate);
                assert_eq!(scalar, by_threshold, "k {k} probe {probe}");
            }
        }
    }

    #[test]
    fn bernoulli_fill_draws_the_coins_bernoulli_would() {
        // Lengths around the bulk size, from stream offsets that split a
        // block, at every kind of probability.
        let b = BULK_COINS;
        for p in [-1.0, 0.0, 0.3, 0.5, 1.0 - 1e-12, 1.0, 2.0] {
            for len in [0, 1, 7, b - 1, b, b + 1, 3 * b + 5] {
                for skip in [0, 1, 3] {
                    let mut bulk = ChaCha8Rng::seed_from_u64(7);
                    for _ in 0..skip {
                        bulk.next_u32();
                    }
                    let mut one_by_one = bulk.clone();
                    let mut out = vec![false; len];
                    bernoulli_fill(&mut bulk, p, &mut out);
                    let want: Vec<bool> = (0..len).map(|_| bernoulli(&mut one_by_one, p)).collect();
                    assert_eq!(out, want, "p {p} len {len} skip {skip}");
                    assert_eq!(bulk.next_u64(), one_by_one.next_u64(), "p {p} len {len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn uniform_index_rejects_zero_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let _ = uniform_index(&mut rng, 0);
    }
}
