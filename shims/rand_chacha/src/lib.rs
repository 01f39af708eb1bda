//! Offline stand-in for `rand_chacha` 0.3: a genuine ChaCha8 keystream
//! generator behind the `rand` shim's [`RngCore`] / [`SeedableRng`] traits.
//!
//! The implementation follows RFC 7539's block function with 8 rounds (the
//! word order of output and counter handling match the reference stream
//! cipher; exact bit-compatibility with the crates.io crate is *not*
//! guaranteed and nothing in this workspace depends on it — only on
//! determinism per seed, which holds).

#![forbid(unsafe_code)]

use rand::{RngCore, SeedableRng};

const ROUNDS: usize = 8;

/// A ChaCha stream cipher RNG with 8 rounds.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key + constants + nonce state template (counter lives separately).
    key: [u32; 8],
    /// 64-bit block counter.
    counter: u64,
    /// Buffered keystream words from the current block.
    buffer: [u32; 16],
    /// Next unread index into `buffer` (16 = exhausted).
    index: usize,
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut state: [u32; 16] = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let input = state;
        for _ in 0..ROUNDS / 2 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, start) in state.iter_mut().zip(input) {
            *word = word.wrapping_add(start);
        }
        self.buffer = state;
        self.index = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    /// The stream position of the next `next_u32` word, as in
    /// `rand_chacha` 0.3 (a `next_u64` reads two words).
    pub fn get_word_pos(&self) -> u128 {
        // While `counter > 0` the buffer holds block `counter - 1`; a fresh
        // generator (`counter == 0`, `index == 16`) stands at word 0.
        u128::from(self.counter) * 16 + self.index as u128 - 16
    }

    // lint: hot-path
    /// Moves the stream to word `word_offset`, as in `rand_chacha` 0.3:
    /// the next `next_u32` returns that word. Seeking inside the buffered
    /// block only moves the read index; any other target computes its one
    /// block. Forward and backward seeks are equally cheap.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        let block = (word_offset / 16) as u64;
        if self.counter == 0 || self.counter - 1 != block {
            self.counter = block;
            self.refill();
        }
        self.index = (word_offset % 16) as usize;
    }
    // lint: end-hot-path
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, word) in key.iter_mut().enumerate() {
            *word = u32::from_le_bytes([
                seed[4 * i],
                seed[4 * i + 1],
                seed[4 * i + 2],
                seed[4 * i + 3],
            ]);
        }
        ChaCha8Rng {
            key,
            counter: 0,
            buffer: [0; 16],
            index: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..5 {
            a.next_u32();
        }
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// The first `words` words of seed `seed`'s stream, read sequentially.
    fn sequential(seed: u64, words: usize) -> Vec<u32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..words).map(|_| rng.next_u32()).collect()
    }

    #[test]
    fn word_pos_counts_words_read() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(rng.get_word_pos(), 0);
        rng.next_u32();
        assert_eq!(rng.get_word_pos(), 1);
        rng.next_u64();
        assert_eq!(rng.get_word_pos(), 3);
        for _ in 0..13 {
            rng.next_u32();
        }
        assert_eq!(rng.get_word_pos(), 16, "end of the first block");
        rng.next_u32();
        assert_eq!(rng.get_word_pos(), 17);
    }

    #[test]
    fn seeking_reproduces_the_sequential_stream() {
        let stream = sequential(11, 200);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        // Odd and even offsets, block boundaries from both sides, backwards
        // jumps, and targets inside the buffered block.
        for pos in [
            0usize, 1, 2, 7, 15, 16, 17, 31, 32, 47, 100, 99, 64, 3, 16, 15, 150, 151, 152,
        ] {
            rng.set_word_pos(pos as u128);
            assert_eq!(rng.get_word_pos(), pos as u128);
            assert_eq!(rng.next_u32(), stream[pos], "word {pos}");
            assert_eq!(rng.get_word_pos(), pos as u128 + 1);
        }
        // A u64 read straddling a block boundary after a seek.
        rng.set_word_pos(15);
        assert_eq!(
            rng.next_u64(),
            u64::from(stream[15]) | u64::from(stream[16]) << 32
        );
        // Sequential reading continues correctly after a seek.
        rng.set_word_pos(40);
        let tail: Vec<u32> = (0..50).map(|_| rng.next_u32()).collect();
        assert_eq!(tail, stream[40..90]);
    }

    #[test]
    fn seeking_within_the_buffered_block_keeps_the_block() {
        let stream = sequential(5, 32);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        rng.set_word_pos(20);
        let counter = rng.counter;
        for pos in [31usize, 16, 24, 17] {
            rng.set_word_pos(pos as u128);
            assert_eq!(rng.counter, counter, "no block recomputed for {pos}");
            assert_eq!(rng.next_u32(), stream[pos]);
        }
    }

    #[test]
    fn set_of_get_word_pos_is_the_identity() {
        for reads in [0usize, 1, 2, 15, 16, 17, 33] {
            let mut rng = ChaCha8Rng::seed_from_u64(8);
            for _ in 0..reads {
                rng.next_u32();
            }
            let mut seeked = rng.clone();
            seeked.set_word_pos(seeked.get_word_pos());
            assert_eq!(seeked.get_word_pos(), rng.get_word_pos());
            let a: Vec<u64> = (0..20).map(|_| rng.next_u64()).collect();
            let b: Vec<u64> = (0..20).map(|_| seeked.next_u64()).collect();
            assert_eq!(a, b, "after {reads} reads");
        }
    }

    #[test]
    fn output_looks_balanced() {
        // Not a statistical test suite — just a sanity check that bits flip.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut ones = 0u32;
        for _ in 0..1024 {
            ones += rng.next_u64().count_ones();
        }
        let total = 1024 * 64;
        assert!((ones as f64 / total as f64 - 0.5).abs() < 0.02);
    }
}
