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

/// The integer threshold `T` with
/// `uniform_f64(x) < p  ⟺  (x >> 11) < T` for `0 < p < 1`, so engine
/// kernels can replay [`bernoulli`] on raw words without the float.
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
    #[should_panic(expected = "bound must be positive")]
    fn uniform_index_rejects_zero_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let _ = uniform_index(&mut rng, 0);
    }
}
