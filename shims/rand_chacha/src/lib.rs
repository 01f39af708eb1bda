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

/// The first four words of every block: "expand 32-byte k".
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Blocks [`RngCore::fill_bytes`] computes at once, side by side in the
/// lanes of `[[u32; LANES]; 16]` (see [`wide_blocks`]); 1 means one block at
/// a time through the scalar core.
///
/// A compile-time choice, because the interleaved kernel pays only where
/// the compiler keeps its sixteen rows in vector registers and rotates them
/// in one instruction. Measured on a 2-core AVX-512 x86-64 box (bulk fills
/// of 2 KiB, ns per block): under `target-cpu=native` 10.5 with 4 lanes,
/// 21.6 with 8 and 27.5 one block at a time; under `x86-64-v3` 47.2 with 4
/// lanes against 48.0, and under `x86-64` 55.4 against 54.8, so there the
/// kernel gains nothing.
const LANES: usize = if cfg!(target_feature = "avx512vl") {
    4
} else {
    1
};

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

/// The quarter round of [`quarter_round`] on `L` blocks at once, lane by
/// lane: row `i` holds word `i` of every block.
// Each lane reads and writes four rows of one array; indexing by lane is
// what the compiler turns into row-wide vector operations (copying the rows
// out to iterate them measured 4× slower).
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn wide_quarter_round<const L: usize>(
    state: &mut [[u32; L]; 16],
    a: usize,
    b: usize,
    c: usize,
    d: usize,
) {
    for lane in 0..L {
        state[a][lane] = state[a][lane].wrapping_add(state[b][lane]);
        state[d][lane] = (state[d][lane] ^ state[a][lane]).rotate_left(16);
        state[c][lane] = state[c][lane].wrapping_add(state[d][lane]);
        state[b][lane] = (state[b][lane] ^ state[c][lane]).rotate_left(12);
        state[a][lane] = state[a][lane].wrapping_add(state[b][lane]);
        state[d][lane] = (state[d][lane] ^ state[a][lane]).rotate_left(8);
        state[c][lane] = state[c][lane].wrapping_add(state[d][lane]);
        state[b][lane] = (state[b][lane] ^ state[c][lane]).rotate_left(7);
    }
}

/// Blocks `counter, counter + 1, …, counter + L − 1` of the stream keyed by
/// `key`, interleaved: word `i` of block `counter + l` is `out[i][l]`.
/// Bit-exact with computing each block through `ChaCha8Rng::refill`.
fn wide_blocks<const L: usize>(key: &[u32; 8], counter: u64) -> [[u32; L]; 16] {
    let mut state = [[0u32; L]; 16];
    for (row, &word) in state.iter_mut().zip(CONSTANTS.iter().chain(key)) {
        *row = [word; L];
    }
    let block = |lane: usize| counter.wrapping_add(lane as u64);
    state[12] = std::array::from_fn(|lane| block(lane) as u32);
    state[13] = std::array::from_fn(|lane| (block(lane) >> 32) as u32);
    let input = state;
    for _ in 0..ROUNDS / 2 {
        wide_quarter_round(&mut state, 0, 4, 8, 12);
        wide_quarter_round(&mut state, 1, 5, 9, 13);
        wide_quarter_round(&mut state, 2, 6, 10, 14);
        wide_quarter_round(&mut state, 3, 7, 11, 15);
        wide_quarter_round(&mut state, 0, 5, 10, 15);
        wide_quarter_round(&mut state, 1, 6, 11, 12);
        wide_quarter_round(&mut state, 2, 7, 8, 13);
        wide_quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (row, start) in state.iter_mut().zip(input) {
        for (word, start) in row.iter_mut().zip(start) {
            *word = word.wrapping_add(start);
        }
    }
    state
}

/// Writes `words` into `out` as little-endian bytes (`out` holds exactly
/// four bytes per word).
#[inline]
fn put_words<'a>(out: &mut [u8], words: impl IntoIterator<Item = &'a u32>) {
    for (bytes, word) in out.chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut state: [u32; 16] = [
            CONSTANTS[0],
            CONSTANTS[1],
            CONSTANTS[2],
            CONSTANTS[3],
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

    /// Fills `out` (a whole number of words) with the next keystream words
    /// as little-endian bytes: the buffered words first, then whole blocks
    /// straight into `out` ([`LANES`] at a time while that many fit), then
    /// the rest word by word. The buffer is left holding block
    /// `counter − 1`, so seeking stays correct.
    fn fill_words(&mut self, out: &mut [u8]) {
        let buffered = (16 - self.index).min(out.len() / 4);
        let (head, out) = out.split_at_mut(4 * buffered);
        put_words(head, &self.buffer[self.index..self.index + buffered]);
        self.index += buffered;
        let out = if LANES > 1 {
            self.fill_groups(out)
        } else {
            out
        };
        let mut blocks = out.chunks_exact_mut(64);
        for block in &mut blocks {
            self.refill();
            put_words(block, &self.buffer);
            self.index = 16;
        }
        for word in blocks.into_remainder().chunks_exact_mut(4) {
            word.copy_from_slice(&self.next_u32().to_le_bytes());
        }
    }

    /// Fills as many whole groups of [`LANES`] blocks of `out` as fit, from
    /// block `counter` on, through [`wide_blocks`], and returns the rest.
    /// Called with the buffer exhausted; leaves it holding the last block
    /// written, as [`ChaCha8Rng::refill`] would have.
    fn fill_groups<'a>(&mut self, out: &'a mut [u8]) -> &'a mut [u8] {
        let mut groups = out.chunks_exact_mut(64 * LANES);
        let mut last = None;
        for group in &mut groups {
            let blocks = wide_blocks::<LANES>(&self.key, self.counter);
            for (lane, block) in group.chunks_exact_mut(64).enumerate() {
                put_words(block, blocks.iter().map(|row| &row[lane]));
            }
            self.counter = self.counter.wrapping_add(LANES as u64);
            last = Some(blocks);
        }
        if let Some(blocks) = last {
            for (word, row) in self.buffer.iter_mut().zip(&blocks) {
                *word = row[LANES - 1];
            }
        }
        groups.into_remainder()
    }
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

    /// The trait default's bytes — the little-endian bytes of successive
    /// `next_u64`s, a partial tail consuming a whole one — computed whole
    /// blocks at a time. Since `next_u64` puts its first word low, whole
    /// `u64`s are just the keystream words in order.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let whole = dest.len() - dest.len() % 8;
        let (words, tail) = dest.split_at_mut(whole);
        self.fill_words(words);
        if !tail.is_empty() {
            let coin = self.next_u64().to_le_bytes();
            tail.copy_from_slice(&coin[..tail.len()]);
        }
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

    /// A generator whose `fill_bytes` is the trait default, built from the
    /// wrapped one's `next_u64`.
    struct DefaultFill(ChaCha8Rng);

    impl RngCore for DefaultFill {
        fn next_u32(&mut self) -> u32 {
            self.0.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    #[test]
    fn fill_bytes_matches_the_trait_default() {
        // From the stream's start, and from block 2³² − 2, so that the
        // first bulk group straddles block 2³², whose counter carries into
        // the high word; every starting word offset within and just past a
        // block, every length up to two groups and a tail.
        let straddle = (u128::from(u32::MAX) - 1) * 16;
        for base in [0u128, straddle] {
            for offset in 0..=17u128 {
                let mut fresh = ChaCha8Rng::seed_from_u64(6);
                fresh.set_word_pos(base + offset);
                for len in 0..=128 * LANES + 13 {
                    let mut bulk = fresh.clone();
                    let mut default = DefaultFill(fresh.clone());
                    let (mut a, mut b) = (vec![0u8; len], vec![0u8; len]);
                    bulk.fill_bytes(&mut a);
                    default.fill_bytes(&mut b);
                    assert_eq!(a, b, "base {base} offset {offset} len {len}");
                    assert_eq!(bulk.get_word_pos(), default.0.get_word_pos());
                    assert_eq!(bulk.next_u64(), default.next_u64(), "then {len}");
                }
            }
        }
    }

    #[test]
    fn seeking_after_a_bulk_fill_reads_the_stream() {
        let stream = sequential(12, 64 * 16);
        for len in [8 * 64 * LANES, 8 * 64 * LANES + 8, 8 * 64 * LANES + 64] {
            let mut rng = ChaCha8Rng::seed_from_u64(12);
            let mut out = vec![0u8; len];
            rng.fill_bytes(&mut out);
            let end = len / 4;
            // The words of the last bulk block, the block the buffer holds
            // (the stale-buffer hazard), then earlier and later blocks.
            for pos in [
                end - 1,
                end - 16,
                end - 7,
                end,
                end + 1,
                3,
                end + 40,
                end - 1,
            ] {
                rng.set_word_pos(pos as u128);
                assert_eq!(rng.next_u32(), stream[pos], "len {len} word {pos}");
            }
        }
    }

    #[test]
    fn wide_blocks_are_bit_exact_with_refill() {
        fn check<const L: usize>(counter: u64) {
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            let blocks = wide_blocks::<L>(&rng.key, counter);
            for lane in 0..L {
                rng.counter = counter.wrapping_add(lane as u64);
                rng.refill();
                let wide: Vec<u32> = blocks.iter().map(|row| row[lane]).collect();
                assert_eq!(wide, rng.buffer, "lane {lane} of {L} from block {counter}");
            }
        }
        for counter in [0, 1, 7, u64::from(u32::MAX) - 2, u64::MAX - 1] {
            check::<LANES>(counter);
            check::<1>(counter);
            check::<4>(counter);
            check::<8>(counter);
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
