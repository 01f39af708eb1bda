//! Bit-sliced batch trial execution: up to 64 trials per adjacency-word pass.
//!
//! [`TrialExecutor`](crate::TrialExecutor) made trials cheap by reusing one
//! harness across seeds, but every trial still walks the packed adjacency
//! rows alone. A [`BatchExecutor`] runs a *lane group* of up to [`MAX_LANES`]
//! trials in lockstep over one shared
//! [`Arc<DualGraph>`](dradio_graphs::DualGraph): per-node per-trial state
//! packs one bit per trial into `u64` lane masks, so reception and collision
//! detection for the whole group resolve with word-wide AND/OR algebra — one
//! pass over the transmitting neighbors serves all 64 trials.
//!
//! The executor is a fixed-rate kernel: every process in the network must
//! opt into [`BatchProfile::FixedRate`], so transmit decisions for 8
//! interleaved ChaCha8 streams collapse to one threshold compare per random
//! word and no process objects run at all. Transmit decisions are known
//! before the link step, so a lane whose adversary declares
//! [`LinkProfile::Iid`] never calls `decide`: it reads only the coins of
//! the dynamic edges between its own transmitters and listeners (see
//! [`LinkProcess::link_profile`]). Every lane hears its active dynamic
//! edges at their listening endpoints, straight into the shared ≥1/≥2 lane
//! masks, and the word-parallel fold over `G` starts from that state; no
//! lane keeps a list of its edges.
//!
//! # Equivalence contract
//!
//! Lane `k` of a group produces **exactly** the [`ExecutionOutcome`] of
//! `TrialExecutor::execute(seeds[k], mode)`: per-lane RNG streams are derived
//! with [`derive_stream_seed`] precisely as the scalar path derives them, a
//! per-lane [`StopTracker`] retires finished lanes (masked out while the rest
//! of the group drains), and per-lane [`Metrics`] and collision curves follow
//! the scalar bookkeeping rules. The root `integration_batch` suite pins this
//! across every topology family × oblivious adversary class.
//!
//! # What is refused
//!
//! * Processes whose profile is [`BatchProfile::Generic`] (or an incoherent
//!   `FixedRate`) — they run on the scalar executor.
//! * [`RecordMode::Full`] — retaining per-round history defeats lane
//!   packing; callers fall back to the scalar executor.
//! * Adaptive adversary classes — their views borrow the execution history.
//! * Lane groups larger than [`MAX_LANES`].

use std::sync::Arc;

use dradio_graphs::{DualGraph, Graph, NeighborRow, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::SimConfig;
use crate::engine::{derive_stream_seed, ExecutionOutcome};
use crate::error::SimError;
use crate::executor::{process_contexts, validated_contexts, LinkFactory};
use crate::history::History;
use crate::link::{
    activate_iid_edges, AdversaryClass, AdversarySetup, AdversaryView, IidPlan, LinkProcess,
    LinkProfile,
};
use crate::message::MessageKind;
use crate::metrics::Metrics;
use crate::process::{Assignment, BatchProfile, ProcessContext, ProcessFactory};
use crate::recorder::RecordMode;
use crate::round::Round;
use crate::sampling::bernoulli_threshold;
use crate::stop::{StopCondition, StopTracker};
use crate::Result;

/// Maximum number of trials in one lane group: one bit per trial in a `u64`.
pub const MAX_LANES: usize = 64;

/// Interleaved ChaCha8 streams per block batch in the fixed-rate kernel.
const STREAMS: usize = 8;

/// Lane mask with the low `count` bits set.
fn group_mask(count: usize) -> u64 {
    if count >= MAX_LANES {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// A bit-sliced batch execution harness over one fixed (network × algorithm ×
/// assignment × adversary recipe × stop condition) combination.
///
/// Construction mirrors [`TrialExecutor::new`](crate::TrialExecutor::new) and
/// additionally refuses processes without a fixed-rate profile and
/// non-oblivious adversary recipes up front. See the
/// [module documentation](self) for the equivalence contract.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use dradio_graphs::topology;
/// use dradio_sim::{
///     Action, Assignment, BatchExecutor, BatchProfile, LinkFactory, Message, MessageKind,
///     Process, ProcessContext, ProcessFactory, RecordMode, Round, SimConfig, StaticLinks,
///     StopCondition, TrialExecutor,
/// };
///
/// struct Beacon(Option<Message>);
/// impl Process for Beacon {
///     fn on_round(&mut self, _round: Round, rng: &mut dyn rand::RngCore) -> Action {
///         match &self.0 {
///             Some(m) if dradio_sim::sampling::bernoulli(rng, 0.5) => Action::Transmit(m.clone()),
///             _ => Action::Listen,
///         }
///     }
///     fn batch_profile(&self) -> BatchProfile {
///         BatchProfile::FixedRate {
///             rate: if self.0.is_some() { 0.5 } else { 0.0 },
///             message: self.0.clone(),
///         }
///     }
/// }
///
/// let factory: ProcessFactory = Arc::new(|ctx: &ProcessContext| {
///     let msg = (ctx.id.index() == 0).then(|| Message::plain(ctx.id, MessageKind::new(1), 7));
///     Box::new(Beacon(msg)) as Box<dyn Process>
/// });
/// let link: LinkFactory = Arc::new(|| Box::new(StaticLinks::none()));
/// let mut batch = BatchExecutor::new(
///     topology::star(5)?,
///     Arc::clone(&factory),
///     Assignment::relays(5),
///     Arc::clone(&link),
///     StopCondition::max_rounds(),
///     SimConfig::default().with_max_rounds(8),
/// )?;
/// let seeds: Vec<u64> = (0..10).collect();
/// let outcomes = batch.execute_group(&seeds, RecordMode::None)?;
/// // Lane k is bit-for-bit the scalar trial with seeds[k].
/// let mut scalar = TrialExecutor::new(
///     topology::star(5)?,
///     factory,
///     Assignment::relays(5),
///     link,
///     StopCondition::max_rounds(),
///     SimConfig::default().with_max_rounds(8),
/// )?;
/// for (k, outcome) in outcomes.iter().enumerate() {
///     assert_eq!(*outcome, scalar.execute(seeds[k], RecordMode::None));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BatchExecutor {
    dual: Arc<DualGraph>,
    factory: ProcessFactory,
    assignment: Assignment,
    config: SimConfig,
    link_factory: LinkFactory,
    tracker_template: StopTracker,
    kernel: KernelPlan,
    lanes: Vec<Lane>,
    shared: Shared,
    kscratch: KernelScratch,
}

/// Per-lane state: everything one trial owns privately. The word-parallel
/// passes live in [`Shared`]; a lane only holds what must not leak between
/// trials (the adversary and its RNG stream, the stop tracker, and the
/// outcome bookkeeping).
struct Lane {
    adversary_rng: ChaCha8Rng,
    link: Box<dyn LinkProcess>,
    link_spent: bool,
    /// The engine-evaluated path when the adversary declares
    /// [`LinkProfile::Iid`]; `None` calls `decide`.
    iid: Option<IidPlan>,
    tracker: StopTracker,
    metrics: Metrics,
    collisions_per_round: Vec<usize>,
    rounds_executed: usize,
    completion_round: Option<Round>,
    completed: bool,
}

impl Lane {
    fn new(tracker: StopTracker, link: Box<dyn LinkProcess>) -> Self {
        Lane {
            adversary_rng: ChaCha8Rng::seed_from_u64(0),
            link,
            link_spent: false,
            iid: None,
            tracker,
            metrics: Metrics::default(),
            collisions_per_round: Vec::new(),
            rounds_executed: 0,
            completion_round: None,
            completed: false,
        }
    }
}

/// Word-parallel scratch shared by every lane of a group: per-node lane
/// masks, the packed "any lane transmits" bitset, what every listener heard
/// in every lane, and the complete-row fold's tables. All buffers are sized
/// once at construction and reused across groups.
struct Shared {
    /// `transmit[u]`: lane mask of trials in which node `u` transmits.
    transmit: Vec<u64>,
    /// Packed bitset over nodes: bit `v` set iff `transmit[v] != 0`.
    tx_any: Vec<u64>,
    /// What each listener heard this round, lane by lane.
    heard: Heard,
    words_per_row: usize,
    /// Packed bitset over nodes: bit `u` set iff `u`'s static row is
    /// complete (degree `n - 1`) — such listeners take the subtract-self
    /// fast path in [`fold_reception`] instead of re-scanning the
    /// transmitter set.
    complete_rows: Vec<u64>,
    /// Whether any bit of `complete_rows` is set (skips the global fold on
    /// sparse graphs where no listener can use it).
    has_complete_rows: bool,
    /// `first_tx[v]`: lanes whose first transmitter in node order is `v`
    /// this round (valid only when `has_complete_rows`).
    first_tx: Vec<u64>,
    /// `second_tx[v]`: lanes whose second transmitter in node order is `v`.
    second_tx: Vec<u64>,
    /// Nodes transmitting in at least one live lane this round, in no
    /// particular order.
    tx_nodes: Vec<u32>,
}

impl Shared {
    fn new(g: &Graph) -> Self {
        let n = g.len();
        let words_per_row = g.row_words();
        let mut complete_rows = vec![0u64; words_per_row];
        let mut has_complete_rows = false;
        for u in 0..n {
            if g.degree(NodeId::new(u)) == n - 1 {
                complete_rows[u / 64] |= 1u64 << (u % 64);
                has_complete_rows = true;
            }
        }
        Shared {
            transmit: vec![0u64; n],
            tx_any: vec![0u64; words_per_row],
            heard: Heard {
                ge1: vec![0u64; n],
                ge2: vec![0u64; n],
                senders: vec![0u32; n * MAX_LANES],
            },
            words_per_row,
            complete_rows,
            has_complete_rows,
            first_tx: if has_complete_rows {
                vec![0u64; n]
            } else {
                Vec::new()
            },
            second_tx: if has_complete_rows {
                vec![0u64; n]
            } else {
                Vec::new()
            },
            tx_nodes: Vec::new(),
        }
    }
}

/// What each listener heard this round, lane by lane: saturating ≥1/≥2
/// counters and the sender table. Lanes hear their active dynamic edges
/// into it first; [`fold_reception`] then adds the static neighbours.
struct Heard {
    /// Lanes in which a listener heard ≥ 1 transmitting neighbor.
    ge1: Vec<u64>,
    /// Lanes in which a listener heard ≥ 2 transmitting neighbors.
    ge2: Vec<u64>,
    /// `senders[u * MAX_LANES + lane]`: the unique transmitting neighbor of
    /// `u` in `lane`, valid only where `ge1 & !ge2` is set this round.
    senders: Vec<u32>,
}

impl Heard {
    // lint: hot-path
    /// In `lane`, `listener` hears `transmitter` over an active dynamic
    /// edge. Idempotent: hearing the same transmitter again changes
    /// nothing, so a repeated edge is never counted twice.
    #[inline]
    fn hear(&mut self, lane: usize, listener: usize, transmitter: usize) {
        let bit = 1u64 << lane;
        let sender = &mut self.senders[listener * MAX_LANES + lane];
        if self.ge1[listener] & bit == 0 {
            self.ge1[listener] |= bit;
            *sender = transmitter as u32;
        } else if *sender != transmitter as u32 {
            self.ge2[listener] |= bit;
        }
    }
    // lint: end-hot-path
}

/// Precomputed fixed-rate transmit plan: which nodes flip a coin each round
/// (and against what integer threshold), which always transmit, and the
/// message kind each transmitting node delivers.
struct KernelPlan {
    /// Nodes with `0 < rate < 1`: `(node, threshold)` with
    /// `bernoulli(rng, rate)  ⟺  (next_u64() >> 11) < threshold`.
    coin: Vec<(u32, u64)>,
    /// Nodes with `rate >= 1` (transmit every round).
    always: Vec<u32>,
    /// Message kind per node (meaningful only for transmitting nodes).
    kinds: Vec<MessageKind>,
}

impl KernelPlan {
    /// Probes one process per context, in node order, and stops at the
    /// first whose profile is not a coherent `FixedRate` — so a
    /// [`BatchProfile::Generic`] network costs one process construction.
    /// Returns the offending node on refusal.
    fn probe(
        contexts: impl Iterator<Item = ProcessContext>,
        factory: &ProcessFactory,
    ) -> std::result::Result<KernelPlan, NodeId> {
        let mut plan = KernelPlan {
            coin: Vec::new(),
            always: Vec::new(),
            kinds: Vec::new(),
        };
        for ctx in contexts {
            let BatchProfile::FixedRate { rate, message } = (factory)(&ctx).batch_profile() else {
                return Err(ctx.id);
            };
            let u = ctx.id.index() as u32;
            if rate <= 0.0 {
                // Never transmits; the message is irrelevant.
                plan.kinds.push(MessageKind::new(0));
                continue;
            }
            // A positive rate with no message violates the profile contract;
            // refuse rather than deliver nothing.
            let Some(message) = message else {
                return Err(ctx.id);
            };
            plan.kinds.push(message.kind());
            if rate >= 1.0 {
                plan.always.push(u);
            } else {
                plan.coin.push((u, bernoulli_threshold(rate)));
            }
        }
        Ok(plan)
    }
}

/// Kernel-only scratch: interleaved ChaCha8 keys per (coin node, lane) and
/// an 8-round transmit-mask buffer refilled one block batch at a time.
struct KernelScratch {
    /// `keys[ci * MAX_LANES + lane]`: ChaCha key of coin node `ci`'s stream
    /// in `lane` (zero key for lanes beyond the group size).
    keys: Vec<[u32; 8]>,
    /// `t_buf[j * n + u]`: node `u`'s transmit lane mask for round
    /// `8 * block + j`.
    t_buf: Vec<u64>,
}

impl KernelScratch {
    fn new() -> Self {
        KernelScratch {
            keys: Vec::new(),
            t_buf: Vec::new(),
        }
    }
}

/// One ChaCha quarter-round applied across all interleaved streams.
// Indexed loops: each statement reads row `b`/`c`/`d` while writing row `a`
// (etc.) of the same array, which iterator adapters cannot split-borrow, and
// the stream-major index form is the shape the auto-vectorizer fuses into
// one vector op per statement.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn quarter_round(s: &mut [[u32; STREAMS]; 16], a: usize, b: usize, c: usize, d: usize) {
    for i in 0..STREAMS {
        s[a][i] = s[a][i].wrapping_add(s[b][i]);
    }
    for i in 0..STREAMS {
        s[d][i] = (s[d][i] ^ s[a][i]).rotate_left(16);
    }
    for i in 0..STREAMS {
        s[c][i] = s[c][i].wrapping_add(s[d][i]);
    }
    for i in 0..STREAMS {
        s[b][i] = (s[b][i] ^ s[c][i]).rotate_left(12);
    }
    for i in 0..STREAMS {
        s[a][i] = s[a][i].wrapping_add(s[b][i]);
    }
    for i in 0..STREAMS {
        s[d][i] = (s[d][i] ^ s[a][i]).rotate_left(8);
    }
    for i in 0..STREAMS {
        s[c][i] = s[c][i].wrapping_add(s[d][i]);
    }
    for i in 0..STREAMS {
        s[b][i] = (s[b][i] ^ s[c][i]).rotate_left(7);
    }
}

/// One 64-byte ChaCha8 block at `counter` for [`STREAMS`] independent keys,
/// word-major (`out[word][stream]`), bit-exact with `ChaCha8Rng`: word `w`
/// of block `b` is the `16·b + w`-th `next_u32` of the stream.
// lint: hot-path
fn chacha8_blocks(keys: &[[u32; 8]], counter: u64, out: &mut [[u32; STREAMS]; 16]) {
    let mut s: [[u32; STREAMS]; 16] = [[0; STREAMS]; 16];
    let consts = [0x6170_7865u32, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
    for w in 0..4 {
        s[w] = [consts[w]; STREAMS];
    }
    for k in 0..8 {
        for i in 0..STREAMS {
            s[4 + k][i] = keys[i][k];
        }
    }
    s[12] = [counter as u32; STREAMS];
    s[13] = [(counter >> 32) as u32; STREAMS];
    let input = s;
    for _ in 0..4 {
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for w in 0..16 {
        for i in 0..STREAMS {
            s[w][i] = s[w][i].wrapping_add(input[w][i]);
        }
    }
    *out = s;
}
// lint: end-hot-path

/// Expands a `seed_from_u64` seed into a ChaCha key exactly as the `rand`
/// shim does (a SplitMix64 stream split into 32-bit halves).
fn key_from_u64(mut state: u64) -> [u32; 8] {
    let mut key = [0u32; 8];
    for pair in 0..4 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        key[2 * pair] = z as u32;
        key[2 * pair + 1] = (z >> 32) as u32;
    }
    key
}

/// Adds a lane mask into a 4-plane vertical (bit-sliced) counter. Callers
/// must flush before 16 adds accumulate.
#[inline(always)]
fn counter_add(planes: &mut [u64; 4], mut mask: u64) {
    for plane in planes.iter_mut() {
        let carry = *plane & mask;
        *plane ^= mask;
        mask = carry;
    }
    debug_assert_eq!(mask, 0, "vertical counter overflow: flush more often");
}

/// Drains a 4-plane vertical counter into per-lane totals.
fn counter_flush(planes: &mut [u64; 4], out: &mut [usize; MAX_LANES]) {
    for (i, plane) in planes.iter_mut().enumerate() {
        let mut bits = *plane;
        *plane = 0;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            out[lane] += 1 << i;
        }
    }
}

/// Runs lane `lane_idx`'s link decision for `round` and hears each genuine
/// dynamic edge in that lane, exactly as the scalar executor does (rejected
/// proposals are counted into the lane's metrics). An all-dynamic decision
/// over this very network is heard edge by edge with nothing to validate.
// lint: hot-path
fn decide_lane_edges(
    dual: &Arc<DualGraph>,
    transmit: &[u64],
    heard: &mut Heard,
    lane: &mut Lane,
    lane_idx: usize,
    round: Round,
) {
    let decision = {
        let view = AdversaryView::new(round, dual.len(), None, None, None);
        lane.link.decide(&view, &mut lane.adversary_rng)
    };
    let trusted = decision.is_all_dynamic_of(dual);
    let bit = 1u64 << lane_idx;
    for edge in decision.edges() {
        let (u, v) = edge.endpoints();
        if !trusted && (!dual.g_prime().has_edge(u, v) || dual.g().has_edge(u, v)) {
            lane.metrics.rejected_link_edges += 1;
            continue;
        }
        let (u, v) = (u.index(), v.index());
        match (transmit[u] & bit != 0, transmit[v] & bit != 0) {
            (false, true) => heard.hear(lane_idx, u, v),
            (true, false) => heard.hear(lane_idx, v, u),
            _ => {}
        }
    }
}
// lint: end-hot-path

/// Resolves reception for every lane at once: folds each transmitting
/// neighbor's lane mask into the saturating ≥1/≥2 counters per listener
/// (recording the sender wherever a lane first reaches 1), starting from
/// what the lanes heard over their active dynamic edges — the fold
/// commutes, so dynamic-then-static order matches the scalar count.
///
/// Listeners whose static row is complete (degree `n - 1`) share one global
/// fold over the transmitter set instead of each re-scanning it: a listener
/// `u` hears exactly the transmitters minus `u` itself, and "minus one
/// element" resolves with ≥1/≥2/≥3 saturation plus each lane's first and
/// second transmitter. That turns per-listener work from O(transmitters)
/// into O(1) words — the difference between ~n² and ~n bit operations per
/// round on a clique.
// lint: hot-path
fn fold_reception(dual: &DualGraph, shared: &mut Shared, live: u64) {
    let g = dual.g();
    let n = g.len();
    let words = shared.words_per_row;
    let mut any_transmit = false;
    for w in shared.tx_any.iter_mut() {
        *w = 0;
    }
    for u in 0..n {
        if shared.transmit[u] != 0 {
            shared.tx_any[u / 64] |= 1u64 << (u % 64);
            any_transmit = true;
        }
    }
    if any_transmit {
        // Global fold, shared by every complete-row listener: saturating
        // ≥1/≥2/≥3 lane counters over all transmitters in node order, plus
        // each lane's first and second transmitter (every lane crosses each
        // threshold once, so the per-bit loops run at most 64 times each).
        let (mut g1, mut g2, mut g3) = (0u64, 0u64, 0u64);
        let mut s1 = [0u32; MAX_LANES];
        let mut s2 = [0u32; MAX_LANES];
        if shared.has_complete_rows {
            shared.first_tx[..n].fill(0);
            shared.second_tx[..n].fill(0);
            for w in 0..words {
                let mut bits = shared.tx_any[w];
                while bits != 0 {
                    let v = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let tv = shared.transmit[v];
                    let mut new1 = tv & !g1;
                    shared.first_tx[v] = new1;
                    while new1 != 0 {
                        let lane = new1.trailing_zeros() as usize;
                        new1 &= new1 - 1;
                        s1[lane] = v as u32;
                    }
                    let mut new2 = tv & g1 & !g2;
                    shared.second_tx[v] = new2;
                    while new2 != 0 {
                        let lane = new2.trailing_zeros() as usize;
                        new2 &= new2 - 1;
                        s2[lane] = v as u32;
                    }
                    g3 |= g2 & tv;
                    g2 |= g1 & tv;
                    g1 |= tv;
                }
            }
        }
        let exactly1 = g1 & !g2;
        let exactly2 = g2 & !g3;
        for u in 0..n {
            if shared.complete_rows[u / 64] >> (u % 64) & 1 == 1 {
                // Subtract-self: u hears every transmitter but itself. A
                // lane leaves ≥1 only if u was its sole transmitter, and
                // leaves ≥2 only if the lane had exactly two and u was one
                // of them (≥3 minus one is still ≥2).
                let ftx = shared.first_tx[u];
                let involved = ftx | shared.second_tx[u];
                let ge1 = g1 & !(exactly1 & ftx);
                let ge2 = g2 & !(exactly2 & involved);
                let mut delivered = ge1 & !ge2;
                while delivered != 0 {
                    let lane = delivered.trailing_zeros() as usize;
                    delivered &= delivered - 1;
                    // The unique audible transmitter, in scalar neighbor
                    // order: the lane's first transmitter unless that was
                    // u itself, then its second.
                    shared.heard.senders[u * MAX_LANES + lane] = if s1[lane] == u as u32 {
                        s2[lane]
                    } else {
                        s1[lane]
                    };
                }
                // A complete row leaves no dynamic edge at u, so u heard
                // nothing before the fold.
                shared.heard.ge1[u] = ge1;
                shared.heard.ge2[u] = ge2;
                continue;
            }
            let mut ge1 = shared.heard.ge1[u];
            let mut ge2 = shared.heard.ge2[u];
            match g.neighbor_row(NodeId::new(u)) {
                NeighborRow::Dense(row) => {
                    'row: for (w, &row_bits) in row.iter().enumerate().take(words) {
                        let mut hits = row_bits & shared.tx_any[w];
                        while hits != 0 {
                            let v = w * 64 + hits.trailing_zeros() as usize;
                            hits &= hits - 1;
                            let tv = shared.transmit[v];
                            let mut newly = tv & !ge1;
                            while newly != 0 {
                                let lane = newly.trailing_zeros() as usize;
                                newly &= newly - 1;
                                shared.heard.senders[u * MAX_LANES + lane] = v as u32;
                            }
                            ge2 |= ge1 & tv;
                            ge1 |= tv;
                            if ge2 == live {
                                // Every live lane already collided at this
                                // listener; further transmitters cannot
                                // change any category.
                                break 'row;
                            }
                        }
                    }
                }
                NeighborRow::Sparse(row) => {
                    // CSR backend: the sorted neighbor walk visits the same
                    // transmitters in the same ascending order as the word
                    // scan, so the fold (and each lane's recorded first
                    // sender) is identical.
                    'sparse: for &v in row {
                        let v = v.index();
                        let tv = shared.transmit[v];
                        if tv == 0 {
                            continue;
                        }
                        let mut newly = tv & !ge1;
                        while newly != 0 {
                            let lane = newly.trailing_zeros() as usize;
                            newly &= newly - 1;
                            shared.heard.senders[u * MAX_LANES + lane] = v as u32;
                        }
                        ge2 |= ge1 & tv;
                        ge1 |= tv;
                        if ge2 == live {
                            break 'sparse;
                        }
                    }
                }
            }
            shared.heard.ge1[u] = ge1;
            shared.heard.ge2[u] = ge2;
        }
    }
}
// lint: end-hot-path

/// End-of-round bookkeeping for every live lane: per-lane round counts and
/// collision curve, then stop evaluation — a finished lane retires with
/// `completion_round = round`, exactly like the scalar break.
// lint: hot-path
fn finish_round(
    lanes: &mut [Lane],
    live: &mut u64,
    round: Round,
    round_collisions: &[usize; MAX_LANES],
    records_collisions: bool,
) {
    let mut mask = *live;
    while mask != 0 {
        let lane_idx = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let lane = &mut lanes[lane_idx];
        lane.rounds_executed += 1;
        if records_collisions {
            lane.collisions_per_round.push(round_collisions[lane_idx]);
        }
        lane.metrics.rounds = lane.rounds_executed;
        if lane.tracker.is_done() {
            lane.completion_round = Some(round);
            lane.completed = true;
            *live &= !(1u64 << lane_idx);
        }
    }
}
// lint: end-hot-path

impl BatchExecutor {
    /// Builds a batch executor over the same components as
    /// [`TrialExecutor::new`](crate::TrialExecutor::new).
    ///
    /// # Errors
    ///
    /// Everything the scalar constructor rejects, plus
    /// [`SimError::UnsupportedBatch`] when some process does not declare a
    /// coherent [`BatchProfile::FixedRate`] (checked first, stopping at the
    /// first such node) or `link_factory` produces a non-oblivious adversary
    /// (adaptive views borrow per-round history the lanes do not retain).
    ///
    /// # Panics
    ///
    /// Panics if `stop` references nodes outside the network (a programming
    /// error in the experiment setup, not a runtime condition).
    pub fn new(
        dual: impl Into<Arc<DualGraph>>,
        factory: ProcessFactory,
        assignment: Assignment,
        link_factory: LinkFactory,
        stop: StopCondition,
        config: SimConfig,
    ) -> Result<Self> {
        let dual = dual.into();
        let contexts = validated_contexts(&dual, &assignment, Some(&stop), &config)?;
        let kernel =
            KernelPlan::probe(contexts, &factory).map_err(|node| SimError::UnsupportedBatch {
                reason: format!(
                    "the process at node {node} has no coherent fixed-rate batch \
                     profile; run on the scalar executor"
                ),
            })?;
        let probe = link_factory();
        if probe.class() != AdversaryClass::Oblivious {
            return Err(SimError::UnsupportedBatch {
                reason: format!(
                    "adversary class `{}` needs per-round history; run on the scalar executor",
                    probe.class()
                ),
            });
        }
        let shared = Shared::new(dual.g());
        let tracker = StopTracker::new(stop, dual.len());
        let tracker_template = tracker.clone();
        let lanes = vec![Lane::new(tracker, probe)];
        Ok(BatchExecutor {
            dual,
            factory,
            assignment,
            config,
            link_factory,
            tracker_template,
            kernel,
            lanes,
            shared,
            kscratch: KernelScratch::new(),
        })
    }

    /// The network being simulated.
    pub fn dual(&self) -> &DualGraph {
        &self.dual
    }

    /// The configuration in effect (its seed and record mode are superseded
    /// per group by [`BatchExecutor::execute_group`]'s arguments).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Whether the kernel can drive every process `factory` builds over
    /// `dual` under `assignment`: each declares a coherent
    /// [`BatchProfile::FixedRate`]. Stops at the first process that does
    /// not, so a [`BatchProfile::Generic`] algorithm costs one process
    /// construction. The adversary class, the record mode and the inputs
    /// themselves are checked by [`BatchExecutor::new`] and
    /// [`BatchExecutor::execute_group`].
    pub fn supports(dual: &DualGraph, factory: &ProcessFactory, assignment: &Assignment) -> bool {
        KernelPlan::probe(process_contexts(dual, assignment), factory).is_ok()
    }

    /// Runs one independent trial per seed, all lanes in lockstep, and
    /// returns the per-lane outcomes in seed order. Lane `k` is
    /// outcome-for-outcome `TrialExecutor::execute(seeds[k], record_mode)`.
    ///
    /// # Errors
    ///
    /// [`SimError::UnsupportedBatch`] when `seeds` exceeds [`MAX_LANES`],
    /// `record_mode` is [`RecordMode::Full`], or the link factory turned
    /// adaptive since construction.
    pub fn execute_group(
        &mut self,
        seeds: &[u64],
        record_mode: RecordMode,
    ) -> Result<Vec<ExecutionOutcome>> {
        let count = seeds.len();
        if count == 0 {
            return Ok(Vec::new());
        }
        if count > MAX_LANES {
            return Err(SimError::UnsupportedBatch {
                reason: format!("lane groups hold at most {MAX_LANES} trials, got {count}"),
            });
        }
        if record_mode.records_history() {
            return Err(SimError::UnsupportedBatch {
                reason: "RecordMode::Full retains per-round history; run on the scalar executor"
                    .into(),
            });
        }
        self.prepare_group(seeds)?;
        if !self.lanes[0].tracker.is_done() {
            self.run_kernel(group_mask(count), record_mode);
        } else {
            // Degenerate stop conditions (e.g. an empty receiver set) are
            // complete before any round executes — in every lane at once,
            // since all lanes share the condition.
            for lane in self.lanes[..count].iter_mut() {
                lane.completed = true;
            }
        }
        let n = self.dual.len();
        Ok(self.lanes[..count]
            .iter_mut()
            .map(|lane| ExecutionOutcome {
                completed: lane.completed,
                rounds_executed: lane.rounds_executed,
                completion_round: lane.completion_round,
                history: History::new(n),
                metrics: lane.metrics,
                record_mode,
                collisions_per_round: std::mem::take(&mut lane.collisions_per_round),
            })
            .collect())
    }

    /// Reseeds (and where needed rebuilds) per-lane state for a new group,
    /// runs the adversaries' start hooks, and keys every coin node's
    /// per-lane stream — mirroring the scalar executor's per-trial reseed
    /// step lane by lane.
    fn prepare_group(&mut self, seeds: &[u64]) -> Result<()> {
        let n = self.dual.len();
        while self.lanes.len() < seeds.len() {
            self.lanes.push(Lane::new(
                self.tracker_template.clone(),
                (self.link_factory)(),
            ));
        }
        for (lane_idx, &seed) in seeds.iter().enumerate() {
            let lane = &mut self.lanes[lane_idx];
            if lane.link_spent && !lane.link.reset() {
                lane.link = (self.link_factory)();
            }
            lane.link_spent = true;
            if lane.link.class() != AdversaryClass::Oblivious {
                return Err(SimError::UnsupportedBatch {
                    reason: format!(
                        "adversary class `{}` needs per-round history; run on the scalar executor",
                        lane.link.class()
                    ),
                });
            }
            lane.adversary_rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(seed, u64::MAX));
            lane.tracker.reset();
            lane.metrics = Metrics::default();
            lane.collisions_per_round.clear();
            lane.rounds_executed = 0;
            lane.completion_round = None;
            lane.completed = false;
            let setup = AdversarySetup {
                dual: &self.dual,
                factory: &self.factory,
                assignment: &self.assignment,
                horizon: self.config.max_rounds(),
            };
            lane.link.on_start(&setup, &mut lane.adversary_rng);
            // Lanes never record history, so an `Iid` profile always lets
            // the engine read just the coins reception can see.
            lane.iid = match lane.link.link_profile() {
                LinkProfile::Iid { p } => Some(IidPlan::new(p, &lane.adversary_rng, &self.dual)),
                LinkProfile::Opaque => None,
            };
        }
        let ks = &mut self.kscratch;
        ks.keys
            .resize(self.kernel.coin.len() * MAX_LANES, [0u32; 8]);
        for (ci, &(node, _)) in self.kernel.coin.iter().enumerate() {
            for lane_idx in 0..MAX_LANES {
                ks.keys[ci * MAX_LANES + lane_idx] = match seeds.get(lane_idx) {
                    Some(&seed) => key_from_u64(derive_stream_seed(seed, u64::from(node))),
                    None => [0u32; 8],
                };
            }
        }
        ks.t_buf.resize(STREAMS * n, 0);
        Ok(())
    }

    /// The fixed-rate kernel: transmit decisions for 8 interleaved ChaCha8
    /// streams per block batch, no process objects, metrics derived from the
    /// lane-mask algebra. Only sound because [`KernelPlan::probe`] verified
    /// every process follows the [`BatchProfile::FixedRate`] contract.
    fn run_kernel(&mut self, mut live: u64, record_mode: RecordMode) {
        let dual = &self.dual;
        let lanes = &mut self.lanes;
        let shared = &mut self.shared;
        let ks = &mut self.kscratch;
        let plan = &self.kernel;
        let n = dual.len();
        let horizon = self.config.max_rounds();
        let records_collisions = record_mode.records_collisions();
        let mut out = [[0u32; STREAMS]; 16];

        // lint: hot-path
        for round in Round::range(horizon) {
            let r = round.index();
            let j = r % STREAMS;
            if j == 0 {
                // Refill the 8-round transmit buffer: one interleaved block
                // batch per (coin node, live 8-lane chunk).
                ks.t_buf.fill(0);
                let block = (r / STREAMS) as u64;
                for (ci, &(node, threshold)) in plan.coin.iter().enumerate() {
                    let node = node as usize;
                    for chunk in 0..(MAX_LANES / STREAMS) {
                        if live >> (chunk * STREAMS) & 0xff == 0 {
                            continue;
                        }
                        let base = ci * MAX_LANES + chunk * STREAMS;
                        chacha8_blocks(&ks.keys[base..base + STREAMS], block, &mut out);
                        for step in 0..STREAMS {
                            let lo = &out[2 * step];
                            let hi = &out[2 * step + 1];
                            let mut bits = 0u64;
                            for i in 0..STREAMS {
                                let x = lo[i] as u64 | (hi[i] as u64) << 32;
                                bits |= u64::from((x >> 11) < threshold) << i;
                            }
                            ks.t_buf[step * n + node] |= bits << (chunk * STREAMS);
                        }
                    }
                }
            }

            // 1. Transmit lane masks for this round, from the buffer.
            shared.transmit[..n].fill(0);
            shared.tx_nodes.clear();
            let mut round_tx = [0usize; MAX_LANES];
            for &(node, _) in &plan.coin {
                let m = ks.t_buf[j * n + node as usize] & live;
                if m != 0 {
                    shared.transmit[node as usize] = m;
                    shared.tx_nodes.push(node);
                    let mut bits = m;
                    while bits != 0 {
                        round_tx[bits.trailing_zeros() as usize] += 1;
                        bits &= bits - 1;
                    }
                }
            }
            if !plan.always.is_empty() {
                for &node in &plan.always {
                    shared.transmit[node as usize] = live;
                }
                shared.tx_nodes.extend_from_slice(&plan.always);
                let mut bits = live;
                while bits != 0 {
                    round_tx[bits.trailing_zeros() as usize] += plan.always.len();
                    bits &= bits - 1;
                }
            }

            // 2. Each lane's adversary fixes its dynamic edges, and the lane
            //    hears each active edge at its listening endpoint at once:
            //    an `Iid` profile from the lane's own transmitters, anything
            //    else through `decide`.
            shared.heard.ge1[..n].fill(0);
            shared.heard.ge2[..n].fill(0);
            let (transmit, tx_nodes) = (&shared.transmit, &shared.tx_nodes);
            let heard = &mut shared.heard;
            let mut mask = live;
            while mask != 0 {
                let lane_idx = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let lane = &mut lanes[lane_idx];
                let bit = 1u64 << lane_idx;
                match lane.iid {
                    Some(iid) => activate_iid_edges(
                        &iid,
                        dual,
                        round,
                        tx_nodes
                            .iter()
                            .map(|&v| v as usize)
                            .filter(|&v| transmit[v] & bit != 0),
                        |w| transmit[w] & bit != 0,
                        &mut lane.adversary_rng,
                        |listener, transmitter| heard.hear(lane_idx, listener, transmitter),
                    ),
                    None => decide_lane_edges(dual, transmit, heard, lane, lane_idx, round),
                }
            }

            // 3. Word-parallel reception across all lanes.
            fold_reception(dual, shared, live);

            // 4. Metrics from the lane-mask algebra: deliveries are sparse
            //    (and feed the stop trackers), collisions accumulate in a
            //    vertical popcount, idle listens follow by identity —
            //    listeners partition into zero/one/collision exactly.
            let mut round_deliveries = [0usize; MAX_LANES];
            let mut round_collisions = [0usize; MAX_LANES];
            let mut planes = [0u64; 4];
            let mut pending_adds = 0usize;
            for u in 0..n {
                let listening = live & !shared.transmit[u];
                let collided = shared.heard.ge2[u] & listening;
                if collided != 0 {
                    counter_add(&mut planes, collided);
                    pending_adds += 1;
                    if pending_adds == 15 {
                        counter_flush(&mut planes, &mut round_collisions);
                        pending_adds = 0;
                    }
                }
                let mut ones = shared.heard.ge1[u] & !shared.heard.ge2[u] & listening;
                while ones != 0 {
                    let lane_idx = ones.trailing_zeros() as usize;
                    ones &= ones - 1;
                    round_deliveries[lane_idx] += 1;
                    let sender = shared.heard.senders[u * MAX_LANES + lane_idx] as usize;
                    lanes[lane_idx].tracker.observe_one(
                        NodeId::new(u),
                        NodeId::new(sender),
                        plan.kinds[sender],
                    );
                }
            }
            if pending_adds > 0 {
                counter_flush(&mut planes, &mut round_collisions);
            }
            let mut mask = live;
            while mask != 0 {
                let lane_idx = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let metrics = &mut lanes[lane_idx].metrics;
                metrics.transmissions += round_tx[lane_idx];
                metrics.deliveries += round_deliveries[lane_idx];
                metrics.collisions += round_collisions[lane_idx];
                metrics.idle_listens += n
                    - round_tx[lane_idx]
                    - round_deliveries[lane_idx]
                    - round_collisions[lane_idx];
            }

            // 5. Record, evaluate stops, retire finished lanes.
            finish_round(
                lanes,
                &mut live,
                round,
                &round_collisions,
                records_collisions,
            );
            if live == 0 {
                break;
            }
        }
        // lint: end-hot-path
    }
}

impl std::fmt::Debug for BatchExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchExecutor")
            .field("n", &self.dual.len())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::link::{LinkDecision, StaticLinks};
    use crate::message::Message;
    use crate::process::{Process, Role};
    use crate::sampling;
    use crate::TrialExecutor;
    use dradio_graphs::{topology, Edge};
    use rand::RngCore;

    const DATA: MessageKind = MessageKind::new(1);

    /// Always listens and declares `profile`: the kernel must refuse a
    /// `Generic` one and a positive rate with no message.
    struct Listener(BatchProfile);

    impl Process for Listener {
        fn on_round(&mut self, _round: Round, _rng: &mut dyn RngCore) -> Action {
            Action::Listen
        }
        fn batch_profile(&self) -> BatchProfile {
            self.0.clone()
        }
    }

    fn listener_factory(profile: BatchProfile) -> ProcessFactory {
        Arc::new(move |_: &ProcessContext| Box::new(Listener(profile.clone())) as Box<dyn Process>)
    }

    /// Fixed-rate beacon that opts into the word-parallel kernel.
    struct RateBeacon {
        msg: Option<Message>,
        rate: f64,
    }

    impl Process for RateBeacon {
        fn on_round(&mut self, _round: Round, rng: &mut dyn RngCore) -> Action {
            match &self.msg {
                Some(m) if sampling::bernoulli(rng, self.rate) => Action::Transmit(m.clone()),
                _ => Action::Listen,
            }
        }
        fn batch_profile(&self) -> BatchProfile {
            BatchProfile::FixedRate {
                rate: if self.msg.is_some() { self.rate } else { 0.0 },
                message: self.msg.clone(),
            }
        }
    }

    /// Source transmits at `source_rate`; every relay chatters its own DATA
    /// message at `relay_rate` (0 silences relays).
    fn rate_factory(source_rate: f64, relay_rate: f64) -> ProcessFactory {
        Arc::new(move |ctx: &ProcessContext| {
            let (msg, rate) = if ctx.role == Role::Source {
                (Some(Message::plain(ctx.id, DATA, 7)), source_rate)
            } else if relay_rate > 0.0 {
                (
                    Some(Message::plain(ctx.id, DATA, ctx.id.index() as u64)),
                    relay_rate,
                )
            } else {
                (None, 0.0)
            };
            Box::new(RateBeacon { msg, rate }) as Box<dyn Process>
        })
    }

    /// Oblivious dynamic adversary: each genuine `G' \ G` edge flips on with
    /// probability 1/2, and (when one exists) a static `G` edge is proposed
    /// every round to exercise rejection. With `repeats`, the first chosen
    /// edge is proposed twice, from the same coins: hearing is idempotent,
    /// so the twin without repeats must produce the same outcome.
    struct FlakyLinks {
        dynamic: Vec<Edge>,
        bogus: Option<Edge>,
        repeats: bool,
    }

    impl LinkProcess for FlakyLinks {
        fn class(&self) -> AdversaryClass {
            AdversaryClass::Oblivious
        }
        fn on_start(&mut self, setup: &AdversarySetup<'_>, _rng: &mut dyn RngCore) {
            self.dynamic = setup.dual.dynamic_edges().to_vec();
            self.bogus = NodeId::all(setup.dual.len()).find_map(|u| {
                setup
                    .dual
                    .g()
                    .neighbors(u)
                    .first()
                    .map(|&v| Edge::new(u, v))
            });
        }
        fn decide(&mut self, _view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
            let mut chosen = Vec::new();
            for &edge in &self.dynamic {
                if sampling::bernoulli(rng, 0.5) {
                    chosen.push(edge);
                }
            }
            if let Some(&first) = chosen.first().filter(|_| self.repeats) {
                chosen.push(first); // a repeat: heard once, not counted twice
            }
            if let Some(bogus) = self.bogus {
                chosen.push(bogus); // static edge: must be rejected
            }
            LinkDecision::from_edges(chosen)
        }
        fn reset(&mut self) -> bool {
            true
        }
    }

    fn static_link() -> LinkFactory {
        Arc::new(|| Box::new(StaticLinks::none()))
    }

    fn flaky_link(repeats: bool) -> LinkFactory {
        Arc::new(move || {
            Box::new(FlakyLinks {
                dynamic: Vec::new(),
                bogus: None,
                repeats,
            })
        })
    }

    fn assert_groups_match_scalar(
        batch: &mut BatchExecutor,
        scalar: &mut TrialExecutor,
        groups: &[&[u64]],
        mode: RecordMode,
    ) {
        for seeds in groups {
            let outcomes = batch
                .execute_group(seeds, mode)
                .expect("group is batchable");
            assert_eq!(outcomes.len(), seeds.len());
            for (k, outcome) in outcomes.iter().enumerate() {
                let expected = scalar.execute(seeds[k], mode);
                assert_eq!(
                    *outcome, expected,
                    "seed {} (lane {k}) diverged under {mode}",
                    seeds[k]
                );
            }
        }
    }

    #[test]
    fn interleaved_chacha_is_bit_exact() {
        let keys: Vec<[u32; 8]> = (0..STREAMS as u64)
            .map(|i| key_from_u64(derive_stream_seed(0xDEAD_BEEF, i)))
            .collect();
        let mut out = [[0u32; STREAMS]; 16];
        for counter in 0..3u64 {
            chacha8_blocks(&keys, counter, &mut out);
            for (i, _) in keys.iter().enumerate() {
                let mut rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(0xDEAD_BEEF, i as u64));
                // Skip to this block's words.
                for _ in 0..counter * 16 {
                    rng.next_u32();
                }
                for (w, word) in out.iter().enumerate() {
                    assert_eq!(
                        rng.next_u32(),
                        word[i],
                        "stream {i} counter {counter} word {w}"
                    );
                }
            }
        }
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
                let sliced = (x >> 11) < bernoulli_threshold(rate);
                assert_eq!(scalar, sliced, "x {x} rate {rate}");
            }
        }
        // Boundary cases around an exact k/2^53 rate.
        for k in [1u64, 2, 123, (1 << 53) - 1] {
            let rate = k as f64 * scale;
            for probe in [k.saturating_sub(1), k, k + 1] {
                let x = probe << 11;
                let scalar = ((x >> 11) as f64 * scale) < rate;
                let sliced = (x >> 11) < bernoulli_threshold(rate);
                assert_eq!(scalar, sliced, "k {k} probe {probe}");
            }
        }
    }

    #[test]
    fn kernel_matches_scalar_with_dynamic_adversary() {
        let scalar_with = |repeats: bool| {
            TrialExecutor::new(
                topology::dual_clique(8).unwrap(),
                rate_factory(0.7, 0.3),
                Assignment::global(8, NodeId::new(0)),
                flaky_link(repeats),
                StopCondition::global_broadcast(DATA, NodeId::new(0)),
                SimConfig::default().with_max_rounds(40),
            )
            .unwrap()
        };
        let mut batch = BatchExecutor::new(
            topology::dual_clique(8).unwrap(),
            rate_factory(0.7, 0.3),
            Assignment::global(8, NodeId::new(0)),
            flaky_link(true),
            StopCondition::global_broadcast(DATA, NodeId::new(0)),
            SimConfig::default().with_max_rounds(40),
        )
        .unwrap();
        let mut scalar = scalar_with(true);
        let mut twin = scalar_with(false);
        let all: Vec<u64> = (0..64).collect();
        let ragged: Vec<u64> = (200..223).collect();
        for mode in [RecordMode::None, RecordMode::CollisionsOnly] {
            for seeds in [&all[..], &ragged, &[42]] {
                let outcomes = batch
                    .execute_group(seeds, mode)
                    .expect("group is batchable");
                for (k, outcome) in outcomes.iter().enumerate() {
                    // The twin proposes no repeats, so it pins idempotent
                    // hearing on both paths, not only their agreement.
                    let expected = twin.execute(seeds[k], mode);
                    let seed = seeds[k];
                    assert_eq!(*outcome, expected, "lane {k} (seed {seed}) under {mode}");
                    assert_eq!(
                        scalar.execute(seed, mode),
                        expected,
                        "scalar seed {seed} under {mode}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_handles_always_and_silent_nodes() {
        // Two always-on transmitters collide forever on a clique: nothing
        // completes, every listener collides, and idle listens stay zero for
        // listeners — pinned against the scalar path.
        let factory: ProcessFactory = Arc::new(|ctx: &ProcessContext| {
            let rate = match ctx.id.index() {
                0 | 1 => 1.0,
                _ => 0.0,
            };
            let msg = (rate > 0.0).then(|| Message::plain(ctx.id, DATA, ctx.id.index() as u64));
            Box::new(RateBeacon { msg, rate }) as Box<dyn Process>
        });
        let mut batch = BatchExecutor::new(
            topology::star(5).unwrap(),
            Arc::clone(&factory),
            Assignment::relays(5),
            static_link(),
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(9),
        )
        .unwrap();
        let mut scalar = TrialExecutor::new(
            topology::star(5).unwrap(),
            factory,
            Assignment::relays(5),
            static_link(),
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(9),
        )
        .unwrap();
        let seeds: Vec<u64> = (0..10).collect();
        assert_groups_match_scalar(
            &mut batch,
            &mut scalar,
            &[&seeds],
            RecordMode::CollisionsOnly,
        );
    }

    #[test]
    fn degenerate_stop_completes_before_any_round() {
        let stop = StopCondition::NodesReceivedKind {
            nodes: vec![],
            kind: DATA,
        };
        let mut batch = BatchExecutor::new(
            topology::star(4).unwrap(),
            rate_factory(0.5, 0.0),
            Assignment::global(4, NodeId::new(0)),
            static_link(),
            stop.clone(),
            SimConfig::default().with_max_rounds(10),
        )
        .unwrap();
        let mut scalar = TrialExecutor::new(
            topology::star(4).unwrap(),
            rate_factory(0.5, 0.0),
            Assignment::global(4, NodeId::new(0)),
            static_link(),
            stop,
            SimConfig::default().with_max_rounds(10),
        )
        .unwrap();
        let outcomes = batch.execute_group(&[3, 4], RecordMode::None).unwrap();
        for (k, outcome) in outcomes.iter().enumerate() {
            assert!(outcome.completed);
            assert_eq!(outcome.rounds_executed, 0);
            assert_eq!(outcome.completion_round, None);
            assert_eq!(*outcome, scalar.execute([3, 4][k], RecordMode::None));
        }
    }

    #[test]
    fn batch_refuses_what_it_cannot_replicate() {
        let mut batch = BatchExecutor::new(
            topology::star(4).unwrap(),
            rate_factory(0.5, 0.0),
            Assignment::global(4, NodeId::new(0)),
            static_link(),
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(5),
        )
        .unwrap();
        let err = batch
            .execute_group(&[1], RecordMode::Full)
            .expect_err("full recording must be refused");
        assert!(matches!(err, SimError::UnsupportedBatch { .. }));
        let too_many: Vec<u64> = (0..65).collect();
        let err = batch
            .execute_group(&too_many, RecordMode::None)
            .expect_err("more than 64 lanes must be refused");
        assert!(matches!(err, SimError::UnsupportedBatch { .. }));
        assert_eq!(
            batch.execute_group(&[], RecordMode::None).unwrap(),
            Vec::new()
        );

        struct Adaptive;
        impl LinkProcess for Adaptive {
            fn class(&self) -> AdversaryClass {
                AdversaryClass::OnlineAdaptive
            }
            fn decide(
                &mut self,
                _view: &AdversaryView<'_>,
                _rng: &mut dyn RngCore,
            ) -> LinkDecision {
                LinkDecision::none()
            }
        }
        let err = BatchExecutor::new(
            topology::star(4).unwrap(),
            rate_factory(0.5, 0.0),
            Assignment::global(4, NodeId::new(0)),
            Arc::new(|| Box::new(Adaptive) as Box<dyn LinkProcess>),
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(5),
        )
        .expect_err("adaptive adversaries must be refused at construction");
        assert!(matches!(err, SimError::UnsupportedBatch { .. }));

        // A positive rate with no message breaks the FixedRate contract.
        let err = BatchExecutor::new(
            topology::star(4).unwrap(),
            listener_factory(BatchProfile::FixedRate {
                rate: 0.5,
                message: None,
            }),
            Assignment::relays(4),
            static_link(),
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(5),
        )
        .expect_err("a rate without a message must be refused");
        assert!(matches!(err, SimError::UnsupportedBatch { .. }));
    }

    #[test]
    fn generic_processes_are_refused_at_the_first_node() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let processes = Arc::new(AtomicUsize::new(0));
        let links = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&processes);
        let inner = listener_factory(BatchProfile::Generic);
        let factory: ProcessFactory = Arc::new(move |ctx: &ProcessContext| {
            counted.fetch_add(1, Ordering::Relaxed);
            inner(ctx)
        });
        let counted = Arc::clone(&links);
        let link: LinkFactory = Arc::new(move || {
            counted.fetch_add(1, Ordering::Relaxed);
            Box::new(StaticLinks::none())
        });
        let dual = topology::star(6).unwrap();
        let assignment = Assignment::global(6, NodeId::new(0));
        assert!(!BatchExecutor::supports(&dual, &factory, &assignment));
        assert_eq!(processes.load(Ordering::Relaxed), 1);
        let err = BatchExecutor::new(
            dual,
            factory,
            assignment,
            link,
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(5),
        )
        .expect_err("generic processes run on the scalar executor");
        assert!(
            matches!(&err, SimError::UnsupportedBatch { reason } if reason.contains("node v0")),
            "{err}"
        );
        // One more process, and no link process, for the refused executor.
        assert_eq!(processes.load(Ordering::Relaxed), 2);
        assert_eq!(links.load(Ordering::Relaxed), 0);
        assert!(BatchExecutor::supports(
            &topology::star(6).unwrap(),
            &rate_factory(0.5, 0.2),
            &Assignment::global(6, NodeId::new(0)),
        ));
    }

    #[test]
    fn validation_mirrors_the_scalar_constructor() {
        let err = BatchExecutor::new(
            topology::line(3).unwrap(),
            rate_factory(0.5, 0.0),
            Assignment::relays(2),
            static_link(),
            StopCondition::max_rounds(),
            SimConfig::default(),
        )
        .expect_err("size mismatch must be rejected");
        assert!(matches!(err, SimError::AssignmentSizeMismatch { .. }));
        let err = BatchExecutor::new(
            topology::line(3).unwrap(),
            rate_factory(0.5, 0.0),
            Assignment::relays(3),
            static_link(),
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(0),
        )
        .expect_err("zero horizon must be rejected");
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }
}
