//! Reusable trial execution: build the expensive parts once, run many seeds.
//!
//! [`Simulator`](crate::Simulator) is a single-shot value: constructing one
//! copies the network, boxes one process per node, and seeds every random
//! stream — and [`Simulator::run`](crate::Simulator::run) consumes it. For a
//! lone execution that is the right shape, but trial fan-out (hundreds of
//! short executions of the same scenario under different seeds) pays the
//! whole setup bill per trial, and after the round loop itself was made
//! allocation-free that bill *dominates* short executions.
//!
//! A [`TrialExecutor`] splits the state by lifetime instead:
//!
//! * **shared, immutable across trials** — the network (held as an
//!   [`Arc<DualGraph>`], never cloned), the process factory, the role
//!   assignment, the stop condition, and the configuration;
//! * **owned, reused across trials** — the process vector (the `Vec` is
//!   cleared and refilled, not reallocated), the per-node RNG vector
//!   (reseeded in place), the adversary RNG, the link process (reused when
//!   [`LinkProcess::reset`] succeeds, rebuilt from the [`LinkFactory`]
//!   otherwise), the [`StopTracker`] (reset in place), and the round
//!   scratch memory.
//!
//! Within a round, active dynamic edges leave no adjacency behind: the
//! executor hears each one at its listening endpoint as soon as the link
//! step produces it, and reception starts every listener from what it
//! heard, then counts only the rows of `G` (of `G'` when every dynamic
//! edge is on; see `RoundScratch`). Only a [`RecordMode::Full`] history
//! lists a round's edges.
//!
//! A round costs what happens in it. A process that declares itself
//! dormant ([`Process::next_wake`]) is not called: it listens, its
//! transmit probability reads 0, and silence reaches it unnoticed. When
//! the transmitters' rows hold fewer entries than there are nodes,
//! reception *pushes* them, hearing each row at its listening neighbours,
//! so a dormant listener nobody reached costs one check. Each node's
//! feedback follows its own reception, and only awake nodes and nodes
//! that heard something other than silence get it.
//!
//! [`TrialExecutor::execute`] is *deterministically equivalent* to building
//! a fresh `Simulator` with the same seed and running it: the per-node and
//! adversary streams are derived from the seed exactly as
//! [`Simulator::new`](crate::Simulator::new) derives them, and the round
//! loop is the same code (`Simulator::run` is implemented on top of this
//! type). The root `integration_executor` test suite pins outcome equality
//! across every registered algorithm × adversary × problem class.

use std::collections::BTreeSet;
use std::sync::Arc;

use dradio_graphs::{DualGraph, Edge, NeighborRow, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::action::{Action, Feedback};
use crate::config::SimConfig;
use crate::engine::{derive_stream_seed, ExecutionOutcome};
use crate::error::SimError;
use crate::history::{Delivery, RoundRecord};
use crate::link::{AdversaryClass, AdversarySetup, AdversaryView, LinkPlan, LinkProcess};
use crate::metrics::Metrics;
use crate::process::{Assignment, Process, ProcessContext, ProcessFactory};
use crate::recorder::{RecordMode, Recorder};
use crate::round::Round;
use crate::stop::{StopCondition, StopTracker};
use crate::Result;

/// Builds one fresh link process per execution. Adversaries are stateful, so
/// reusable executors store this recipe; it is only invoked when the previous
/// trial's process cannot [`reset`](LinkProcess::reset) itself.
pub type LinkFactory = Arc<dyn Fn() -> Box<dyn LinkProcess> + Send + Sync>;

/// The checks both constructors share — [`Simulator::new`](crate::Simulator::new)
/// and [`TrialExecutor::new`]: a valid configuration, a non-empty network, an
/// assignment covering every node, and (when given) a stop condition inside
/// the network. On success, yields each node's [`ProcessContext`] in node
/// order, built lazily.
///
/// # Panics
///
/// Panics if `stop` references nodes outside the network (a programming
/// error in the experiment setup, not a runtime condition).
pub(crate) fn validated_contexts<'a>(
    dual: &DualGraph,
    assignment: &'a Assignment,
    stop: Option<&StopCondition>,
    config: &SimConfig,
) -> Result<impl Iterator<Item = ProcessContext> + 'a> {
    config.validate()?;
    let n = dual.len();
    if n == 0 {
        return Err(SimError::EmptyNetwork);
    }
    if assignment.len() != n {
        return Err(SimError::AssignmentSizeMismatch {
            network: n,
            assignment: assignment.len(),
        });
    }
    if let Some(max_index) = stop.and_then(StopCondition::max_node_index) {
        assert!(
            max_index < n,
            "stop condition references node {max_index} but the network has {n} nodes"
        );
    }
    let max_degree = dual.max_degree();
    Ok(NodeId::all(n).map(move |u| ProcessContext::new(u, n, max_degree, assignment.role(u))))
}

/// A reusable execution harness over one fixed (network × algorithm ×
/// assignment × adversary recipe × stop condition) combination.
///
/// See the [module documentation](self) for the sharing/reuse split and the
/// equivalence guarantee.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use dradio_graphs::topology;
/// use dradio_sim::{
///     Action, Assignment, LinkFactory, Message, MessageKind, Process, ProcessContext,
///     ProcessFactory, RecordMode, Round, SimConfig, StaticLinks, StopCondition, TrialExecutor,
/// };
///
/// struct Beacon(Option<Message>);
/// impl Process for Beacon {
///     fn on_round(&mut self, _round: Round, _rng: &mut dyn rand::RngCore) -> Action {
///         match &self.0 {
///             Some(m) => Action::Transmit(m.clone()),
///             None => Action::Listen,
///         }
///     }
/// }
///
/// let factory: ProcessFactory = Arc::new(|ctx: &ProcessContext| {
///     let msg = (ctx.id.index() == 0).then(|| Message::plain(ctx.id, MessageKind::new(1), 7));
///     Box::new(Beacon(msg)) as Box<dyn Process>
/// });
/// let link: LinkFactory = Arc::new(|| Box::new(StaticLinks::none()));
/// let mut executor = TrialExecutor::new(
///     topology::star(5)?,
///     factory,
///     Assignment::relays(5),
///     link,
///     StopCondition::max_rounds(),
///     SimConfig::default().with_max_rounds(3),
/// )?;
/// for seed in 0..10 {
///     let outcome = executor.execute(seed, RecordMode::None);
///     assert_eq!(outcome.metrics.deliveries, 3 * 4); // 4 leaves hear the hub, 3 rounds
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct TrialExecutor {
    dual: Arc<DualGraph>,
    factory: ProcessFactory,
    assignment: Assignment,
    config: SimConfig,
    link_factory: Option<LinkFactory>,
    link: Option<Box<dyn LinkProcess>>,
    /// Whether the stored link process has served an execution (a fresh one
    /// may be used as-is; a spent one must reset or be rebuilt).
    link_spent: bool,
    contexts: Vec<ProcessContext>,
    processes: Vec<Box<dyn Process>>,
    node_rngs: Vec<ChaCha8Rng>,
    adversary_rng: ChaCha8Rng,
    tracker: StopTracker,
    scratch: RoundScratch,
}

impl TrialExecutor {
    /// Builds an executor whose link process is created (and, when
    /// [`LinkProcess::reset`] declines, re-created) through `link_factory`.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyNetwork`] if the network has no nodes.
    /// * [`SimError::AssignmentSizeMismatch`] if `assignment` covers a
    ///   different number of nodes.
    /// * [`SimError::InvalidConfig`] if the configuration is invalid.
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
        let link = link_factory();
        Self::build(
            dual.into(),
            factory,
            assignment,
            Some(link_factory),
            link,
            stop,
            config,
        )
    }

    /// Builds a single-shot executor around an already-boxed link process
    /// ([`Simulator::run`](crate::Simulator::run) uses this); without a
    /// factory, only the first execution is guaranteed a rebuildable link.
    pub(crate) fn single_shot(
        dual: Arc<DualGraph>,
        factory: ProcessFactory,
        assignment: Assignment,
        link: Box<dyn LinkProcess>,
        stop: StopCondition,
        config: SimConfig,
    ) -> Result<Self> {
        Self::build(dual, factory, assignment, None, link, stop, config)
    }

    fn build(
        dual: Arc<DualGraph>,
        factory: ProcessFactory,
        assignment: Assignment,
        link_factory: Option<LinkFactory>,
        link: Box<dyn LinkProcess>,
        stop: StopCondition,
        config: SimConfig,
    ) -> Result<Self> {
        let contexts: Vec<ProcessContext> =
            validated_contexts(&dual, &assignment, Some(&stop), &config)?.collect();
        let n = dual.len();
        let scratch = RoundScratch::new(n, dual.g().row_words());
        Ok(TrialExecutor {
            tracker: StopTracker::new(stop, n),
            dual,
            factory,
            assignment,
            config,
            link_factory,
            link: Some(link),
            link_spent: false,
            contexts,
            processes: Vec::with_capacity(n),
            node_rngs: Vec::with_capacity(n),
            adversary_rng: ChaCha8Rng::seed_from_u64(0),
            scratch,
        })
    }

    /// The network being simulated.
    pub fn dual(&self) -> &DualGraph {
        &self.dual
    }

    /// The configuration in effect (its seed and record mode are superseded
    /// per execution by [`TrialExecutor::execute`]'s arguments).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs one independent execution from `seed`, retaining as much of it
    /// as `record_mode` asks for.
    ///
    /// Equivalent — outcome for outcome — to
    /// `Simulator::new(..., config.with_seed(seed).with_record_mode(record_mode))?.run(stop)`
    /// with the same components, but without re-copying the network,
    /// reallocating the per-round scratch, or reseeding streams from
    /// scratch-allocated state.
    pub fn execute(&mut self, seed: u64, record_mode: RecordMode) -> ExecutionOutcome {
        let n = self.dual.len();
        // Per-node and adversary streams, derived exactly as Simulator::new
        // derives them, reseeded in place.
        self.node_rngs
            .resize_with(n, || ChaCha8Rng::seed_from_u64(0));
        for (u, rng) in self.node_rngs.iter_mut().enumerate() {
            *rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(seed, u as u64));
        }
        self.adversary_rng = ChaCha8Rng::seed_from_u64(derive_stream_seed(seed, u64::MAX));
        // Fresh processes into the reused vector.
        self.processes.clear();
        for ctx in &self.contexts {
            self.processes.push((self.factory)(ctx));
        }
        // The link process: first use as built, afterwards reset-in-place or
        // rebuild from the recipe.
        let rebuild = |factory: &Option<LinkFactory>| {
            // lint: allow(D4) -- reachable only through TrialExecutor, whose
            // constructor always installs a link factory
            factory.as_ref().expect(
                "this executor has no link factory (single-shot construction) and its \
                 link process does not support reset, so it cannot run a second trial",
            )()
        };
        let mut link = match self.link.take() {
            Some(link) if !self.link_spent => link,
            Some(mut link) => {
                if link.reset() {
                    link
                } else {
                    rebuild(&self.link_factory)
                }
            }
            None => rebuild(&self.link_factory),
        };
        self.link_spent = true;
        self.tracker.reset();
        self.scratch.reset();
        let outcome = self.run_rounds(link.as_mut(), record_mode);
        self.link = Some(link);
        outcome
    }

    /// The round loop (shared verbatim by `Simulator::run`, which wraps a
    /// single-shot executor around its parts).
    fn run_rounds(
        &mut self,
        link: &mut dyn LinkProcess,
        record_mode: RecordMode,
    ) -> ExecutionOutcome {
        let n = self.dual.len();
        let horizon = self.config.max_rounds();
        let class = link.class();
        let adaptive = class != AdversaryClass::Oblivious;
        let offline = class == AdversaryClass::OfflineAdaptive;
        let mut recorder = Recorder::new(record_mode, class, n);
        let mut metrics = Metrics::default();
        let scratch = &mut self.scratch;

        // Start-of-execution hooks. A link profile replays what `on_start`
        // drew, so its plan needs the stream position it began at.
        let link_begin = self.adversary_rng.get_word_pos();
        {
            let setup = AdversarySetup {
                dual: &self.dual,
                factory: &self.factory,
                assignment: &self.assignment,
                horizon,
            };
            link.on_start(&setup, &mut self.adversary_rng);
        }
        for (i, process) in self.processes.iter_mut().enumerate() {
            process.on_start(&mut self.node_rngs[i]);
            scratch.wake[i] = wake_index(process.next_wake(Round::ZERO));
        }

        // A link profile lets the engine evaluate the oblivious link process
        // itself, unless the history must list every active edge.
        let mut plan = if adaptive || recorder.wants_edges() {
            None
        } else {
            LinkPlan::new(
                link.link_profile(),
                link_begin,
                &mut self.adversary_rng,
                &self.dual,
                &mut scratch.chains,
            )
        };

        let mut completion_round = None;
        let mut rounds_executed = 0usize;

        if self.tracker.is_done() {
            // Degenerate conditions (e.g. empty receiver set) are complete
            // before any round executes.
            let record_mode = recorder.mode();
            let (history, collisions_per_round) = recorder.finish();
            return ExecutionOutcome {
                completed: true,
                rounds_executed: 0,
                completion_round: None,
                history,
                metrics,
                record_mode,
                collisions_per_round,
            };
        }

        // lint: hot-path
        for round in Round::range(horizon) {
            rounds_executed += 1;
            let now = round.index();

            // 1. Expected behaviour (visible to adaptive adversaries) must be
            //    captured before any round-r coin is flipped. A dormant
            //    process transmits with probability 0 and is not asked.
            if adaptive {
                scratch.transmit_probs.clear();
                scratch
                    .transmit_probs
                    .extend(self.processes.iter().zip(&scratch.wake).map(|(p, &wake)| {
                        if wake <= now {
                            p.transmit_probability(round)
                        } else {
                            0.0
                        }
                    }));
            }

            // 2. Awake processes pick their actions using their private
            //    coins; a dormant one listens uncalled. `actions` keeps one
            //    slot per node for the offline view: last round's
            //    transmitters go back to listening, and every awake node
            //    overwrites its own slot. 3. The transmitter set, ascending
            //    and as a packed bitset, is collected on the way.
            for v in scratch.transmitters.drain(..) {
                scratch.actions[v.index()] = Action::Listen;
                scratch.transmitter_bits[v.index() / 64] = 0;
            }
            for (i, p) in self.processes.iter_mut().enumerate() {
                if scratch.wake[i] > now {
                    continue;
                }
                let action = p.on_round(round, &mut self.node_rngs[i]);
                if action.is_transmit() {
                    scratch.transmitter_bits[i / 64] |= 1u64 << (i % 64);
                    scratch.transmitters.push(NodeId::new(i));
                }
                scratch.actions[i] = action;
            }

            // 4. The link process fixes the dynamic edges, seeing only what
            //    its class entitles it to (adaptive classes read every
            //    earlier round's transmitters and deliveries from the
            //    recorder, in every record mode). Each active edge is heard
            //    at its listening endpoint as soon as it is decided.
            let mut over_g_prime = false;
            // The round's genuine dynamic edges as proposed, kept only for a
            // Full history (which lists each once, see step 7).
            let mut listed_edges: Vec<Edge> = Vec::new(); // lint: allow(D3) -- Vec::new is allocation-free; pushes happen only under Full recording
            if let Some(plan) = &mut plan {
                let bits = &scratch.transmitter_bits;
                let heard = &mut scratch.heard;
                plan.hear_round(
                    &self.dual,
                    round,
                    scratch.transmitters.iter().map(|v| v.index()),
                    |w| bit(bits, w),
                    &mut self.adversary_rng,
                    |listener, transmitter| hear(heard, listener, transmitter),
                );
            } else {
                let decision = {
                    let view = AdversaryView::new(
                        round,
                        n,
                        adaptive.then(|| recorder.history()),
                        adaptive.then_some(scratch.transmit_probs.as_slice()),
                        offline.then_some(scratch.actions.as_slice()),
                    );
                    link.decide(&view, &mut self.adversary_rng)
                };
                if decision.is_all_dynamic_of(&self.dual) {
                    // Every dynamic edge of this very network: the round's
                    // topology is G' itself, so reception folds over the
                    // rows of G', with nothing to validate or hear.
                    over_g_prime = true;
                } else {
                    // Hear each genuine dynamic edge; hearing is idempotent,
                    // so a repeated proposal changes nothing.
                    for edge in decision.edges() {
                        let (u, v) = edge.endpoints();
                        if !self.dual.g_prime().has_edge(u, v) || self.dual.g().has_edge(u, v) {
                            metrics.rejected_link_edges += 1;
                            continue;
                        }
                        let (u, v) = (u.index(), v.index());
                        let bits = &scratch.transmitter_bits;
                        match (bit(bits, u), bit(bits, v)) {
                            (false, true) => hear(&mut scratch.heard, u, v),
                            (true, false) => hear(&mut scratch.heard, v, u),
                            _ => {}
                        }
                        if recorder.wants_edges() {
                            listed_edges.push(*edge);
                        }
                    }
                }
            }

            // 5. Reception under the collision rule, from the packed
            //    transmitter bitset: what each listener heard over dynamic
            //    edges, plus its transmitting neighbours over G, or over G'
            //    alone when every dynamic edge is on. Each node's feedback
            //    follows its own reception at once (processes share no
            //    state, and reception reads only `actions`).
            let transmitter_count = scratch.transmitters.len();
            metrics.transmissions += transmitter_count;
            let g = if over_g_prime {
                self.dual.g_prime()
            } else {
                self.dual.g()
            };
            // Push: when the transmitters' rows hold fewer entries than
            // there are nodes, hear each row at its listening neighbours
            // (G's rows are disjoint from the dynamic edges, and G' rows
            // come with nothing heard), so every listener starts from what
            // it heard alone, and a dormant listener nobody reached costs
            // one check. Dense rounds pull instead (below).
            let reach: usize = scratch.transmitters.iter().map(|&v| g.degree(v)).sum();
            let push = reach < n;
            if push {
                let bits = &scratch.transmitter_bits;
                for &v in &scratch.transmitters {
                    for &w in g.neighbors(v) {
                        if !bit(bits, w.index()) {
                            hear(&mut scratch.heard, w.index(), v.index());
                        }
                    }
                }
            }

            // Deliveries are materialized only for recorded rounds; feedback
            // and stop evaluation never need the allocation.
            let mut deliveries: Vec<Delivery> = Vec::new(); // lint: allow(D3) -- Vec::new is allocation-free; pushes happen only for recorded rounds
            let mut round_collisions = 0usize;
            let words = g.row_words();
            // Below this transmitter count, probing each transmitter with
            // O(1) bit queries beats scanning the whole adjacency row.
            let probe_transmitters = transmitter_count <= words;
            let bits = &scratch.transmitter_bits;
            for u in NodeId::all(n) {
                let u_idx = u.index();
                let awake = scratch.wake[u_idx] <= now;
                if push && !awake && scratch.heard[u_idx] == 0 {
                    // Dormant (so not transmitting) and unreached: silence,
                    // which a dormant process promised to ignore.
                    metrics.idle_listens += 1;
                    continue;
                }
                let feedback = if bit(bits, u_idx) {
                    Feedback::Transmitted
                } else {
                    // Count transmitting neighbors, capped at 2 (the collision
                    // rule only distinguishes 0 / 1 / "several"), starting
                    // from what u heard (over dynamic edges, and in a push
                    // round over every edge). A dense round adds u's row,
                    // picking the cheapest of three equivalent strategies:
                    // walk the sorted row testing transmitter bits (low
                    // degree, or CSR), probe each transmitter with O(1) edge
                    // queries (few transmitters), or intersect the packed row
                    // with the transmitter bitset. Each stops once the count
                    // reaches 2, and a unique sender is unique whichever
                    // order it is found in, so all of them agree.
                    let (mut count, mut sender) = match std::mem::take(&mut scratch.heard[u_idx]) {
                        0 => (0, 0),
                        HEARD_SEVERAL => (2, 0),
                        mark => (1, mark as usize - 1),
                    };
                    let degree = g.degree(u);
                    if push || count >= 2 {
                        // Nothing to add: the rows were pushed, or it is
                        // already a collision.
                    } else if degree <= transmitter_count && degree <= words * 2 {
                        count_row(g.neighbors(u), bits, &mut count, &mut sender);
                    } else if probe_transmitters {
                        for &v in &scratch.transmitters {
                            if g.has_edge(u, v) {
                                count += 1;
                                if count >= 2 {
                                    break;
                                }
                                sender = v.index();
                            }
                        }
                    } else {
                        match g.neighbor_row(u) {
                            NeighborRow::Dense(row) => {
                                for (w, &row_word) in row.iter().enumerate() {
                                    let hit = row_word & bits[w];
                                    if hit != 0 {
                                        count += hit.count_ones() as usize;
                                        if count >= 2 {
                                            break;
                                        }
                                        sender = w * 64 + hit.trailing_zeros() as usize;
                                    }
                                }
                            }
                            NeighborRow::Sparse(row) => {
                                count_row(row, bits, &mut count, &mut sender);
                            }
                        }
                    }
                    match count {
                        0 => {
                            metrics.idle_listens += 1;
                            Feedback::Silence
                        }
                        1 => {
                            let sender = NodeId::new(sender);
                            let message = scratch.actions[sender.index()]
                                .message()
                                // lint: allow(D4) -- the transmitter bitset is
                                // built from Transmit actions in step 2
                                .expect("a set transmitter bit implies a message");
                            metrics.deliveries += 1;
                            self.tracker.observe_one(u, sender, message.kind());
                            if recorder.wants_history() {
                                deliveries.push(Delivery {
                                    receiver: u,
                                    sender,
                                    message: message.clone(), // lint: allow(D3) -- recorded rounds only: Full, or an adaptive view
                                });
                            }
                            // lint: allow(D3) -- feedback owns its message; a
                            // broadcast message is a small copyable token
                            Feedback::Received(message.clone())
                        }
                        _ => {
                            metrics.collisions += 1;
                            round_collisions += 1;
                            if self.config.collision_detection() {
                                Feedback::Collision
                            } else {
                                Feedback::Silence
                            }
                        }
                    }
                };
                // 6. Feedback reaches every awake process, and a dormant one
                //    only when it is not silence; then the process says when
                //    it next needs a round.
                if awake || !matches!(feedback, Feedback::Silence) {
                    let process = &mut self.processes[u_idx];
                    process.on_feedback(round, &feedback, &mut self.node_rngs[u_idx]);
                    scratch.wake[u_idx] = wake_index(process.next_wake(round.next()));
                }
            }

            // 7. Record and evaluate the stop condition (already observed
            //    delivery by delivery, in ascending receiver order).
            recorder.push_collisions(round_collisions);
            if recorder.wants_history() {
                let active_dynamic_edges = if over_g_prime && recorder.wants_edges() {
                    self.dual.dynamic_index().edges().to_vec() // lint: allow(D3) -- full-recording path only
                } else {
                    // Each edge once, in first-occurrence order (empty
                    // unless the mode is Full).
                    let mut seen = BTreeSet::new();
                    listed_edges.retain(|edge| seen.insert(*edge));
                    listed_edges
                };
                recorder.push(RoundRecord {
                    round,
                    transmitters: scratch.transmitters.clone(), // lint: allow(D3) -- recorded rounds only: Full, or an adaptive view
                    active_dynamic_edges,
                    deliveries,
                });
            }
            metrics.rounds = rounds_executed;

            if self.tracker.is_done() {
                completion_round = Some(round);
                break;
            }
        }
        // lint: end-hot-path

        metrics.rounds = rounds_executed;
        let record_mode = recorder.mode();
        let (history, collisions_per_round) = recorder.finish();
        ExecutionOutcome {
            completed: completion_round.is_some(),
            rounds_executed,
            completion_round,
            history,
            metrics,
            record_mode,
            collisions_per_round,
        }
    }
}

impl std::fmt::Debug for TrialExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrialExecutor")
            .field("n", &self.dual.len())
            .field("config", &self.config)
            .field("reusable_link", &self.link_factory.is_some())
            .finish()
    }
}

/// Reusable per-round working memory: every buffer is cleared, never
/// reallocated, between rounds, so the steady-state round loop performs no
/// heap allocation beyond what the processes themselves do (under
/// [`RecordMode::Full`], or when an adaptive adversary's view reads them,
/// round records are additionally built per round).
///
/// The transmitter set is kept both as a sorted `Vec<NodeId>` (for history
/// records and transmitter probing) and as a packed `u64` bitset aligned
/// with the dense rows of [`dradio_graphs::Graph::neighbor_row`], so
/// reception resolves 64 candidate neighbors per word instead of chasing
/// adjacency rows. Active dynamic edges leave no adjacency behind: each is
/// heard (`hear`) at its listening endpoint when the link step produces it,
/// and reception reads and zeroes what every listener heard.
#[derive(Debug)]
struct RoundScratch {
    /// Per-node actions of the current round: `Listen` everywhere except at
    /// the round's transmitters, rewritten only where a node was called or
    /// transmitted last round.
    actions: Vec<Action>,
    /// Per-node transmit probabilities (adaptive adversaries only).
    transmit_probs: Vec<f64>,
    /// Transmitting nodes, ascending.
    transmitters: Vec<NodeId>,
    /// Packed transmitter bitset (bit `v` set iff node `v` transmits).
    transmitter_bits: Vec<u64>,
    /// What each listener heard this round: over the active dynamic edges,
    /// plus every transmitter's row when the round is pushed. 0 for
    /// nothing, `v + 1` for transmitter `v` alone, or [`HEARD_SEVERAL`].
    /// All zero between rounds.
    heard: Vec<u32>,
    /// The round each process next needs ([`Process::next_wake`]); a node
    /// is awake in round `r` iff its entry is at most `r`, and `usize::MAX`
    /// stands for "until it hears something".
    wake: Vec<usize>,
    /// Each dynamic edge's Gilbert–Elliott chain state, canonically
    /// indexed (`true` for good), under a `GilbertElliott` link plan.
    chains: Vec<bool>,
}

impl RoundScratch {
    fn new(n: usize, words_per_row: usize) -> Self {
        RoundScratch {
            actions: vec![Action::Listen; n],
            transmit_probs: Vec::with_capacity(n),
            transmitters: Vec::with_capacity(n),
            transmitter_bits: vec![0u64; words_per_row],
            heard: vec![0u32; n],
            wake: vec![0; n],
            chains: Vec::new(),
        }
    }

    /// Clears every buffer (keeping capacity) so the scratch can serve a new
    /// execution; within an execution the round loop clears incrementally.
    /// Wake rounds are set after each process's `on_start`.
    fn reset(&mut self) {
        self.actions.fill(Action::Listen);
        self.transmit_probs.clear();
        self.transmitters.clear();
        self.transmitter_bits.fill(0);
        self.heard.fill(0);
    }
}

/// A [`Process::next_wake`] answer as a round index (`usize::MAX` for none).
fn wake_index(wake: Option<Round>) -> usize {
    wake.map_or(usize::MAX, Round::index)
}

/// `heard[u]` once listener `u` has heard two distinct transmitters: a
/// collision, whatever else the round adds.
const HEARD_SEVERAL: u32 = u32::MAX;

// lint: hot-path
/// Whether bit `v` of the packed bitset `bits` is set.
#[inline]
fn bit(bits: &[u64], v: usize) -> bool {
    bits[v / 64] >> (v % 64) & 1 == 1
}

/// Listener `listener` hears `transmitter`, over an active dynamic edge or,
/// in a pushed round, over the transmitter's row. Idempotent: hearing the
/// same transmitter again changes nothing, so a repeated edge is never
/// counted twice.
#[inline]
fn hear(heard: &mut [u32], listener: usize, transmitter: usize) {
    let mark = transmitter as u32 + 1;
    let slot = &mut heard[listener];
    if *slot == 0 {
        *slot = mark;
    } else if *slot != mark {
        *slot = HEARD_SEVERAL;
    }
}

/// Adds the transmitters in the sorted row `row` to `count`, stopping once
/// it reaches 2; `sender` is the last transmitter counted below that.
#[inline]
fn count_row(row: &[NodeId], transmitter_bits: &[u64], count: &mut usize, sender: &mut usize) {
    for &v in row {
        if bit(transmitter_bits, v.index()) {
            *count += 1;
            if *count >= 2 {
                return;
            }
            *sender = v.index();
        }
    }
}
// lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::StaticLinks;
    use crate::message::{Message, MessageKind};
    use crate::process::Role;
    use crate::Simulator;
    use dradio_graphs::topology;
    use rand::RngCore;

    const DATA: MessageKind = MessageKind::new(1);

    /// Source transmits with probability 1/2; relays stay silent.
    struct CoinBeacon {
        msg: Option<Message>,
    }

    impl Process for CoinBeacon {
        fn on_round(&mut self, _round: Round, rng: &mut dyn RngCore) -> Action {
            match &self.msg {
                Some(m) if crate::sampling::bernoulli(rng, 0.5) => Action::Transmit(m.clone()),
                _ => Action::Listen,
            }
        }
        fn transmit_probability(&self, _round: Round) -> f64 {
            if self.msg.is_some() {
                0.5
            } else {
                0.0
            }
        }
    }

    fn coin_factory() -> ProcessFactory {
        Arc::new(|ctx: &ProcessContext| {
            let msg = (ctx.role == Role::Source).then(|| Message::plain(ctx.id, DATA, 7));
            Box::new(CoinBeacon { msg }) as Box<dyn Process>
        })
    }

    fn star_executor() -> TrialExecutor {
        let link: LinkFactory = Arc::new(|| Box::new(StaticLinks::none()));
        TrialExecutor::new(
            topology::star(6).unwrap(),
            coin_factory(),
            Assignment::global(6, NodeId::new(0)),
            link,
            StopCondition::global_broadcast(DATA, NodeId::new(0)),
            SimConfig::default().with_max_rounds(50),
        )
        .expect("executor builds")
    }

    fn star_simulator(seed: u64, mode: RecordMode) -> ExecutionOutcome {
        Simulator::new(
            topology::star(6).unwrap(),
            coin_factory(),
            Assignment::global(6, NodeId::new(0)),
            Box::new(StaticLinks::none()),
            SimConfig::default()
                .with_max_rounds(50)
                .with_seed(seed)
                .with_record_mode(mode),
        )
        .unwrap()
        .run(StopCondition::global_broadcast(DATA, NodeId::new(0)))
    }

    #[test]
    fn reused_executor_matches_fresh_simulators() {
        let mut executor = star_executor();
        for seed in 0..20u64 {
            for mode in [RecordMode::Full, RecordMode::None] {
                let reused = executor.execute(seed, mode);
                let fresh = star_simulator(seed, mode);
                assert_eq!(reused, fresh, "seed {seed} mode {mode} diverged");
            }
        }
        // Seed order does not matter either: re-running an earlier seed
        // reproduces its outcome exactly.
        let replay = executor.execute(3, RecordMode::Full);
        assert_eq!(replay, star_simulator(3, RecordMode::Full));
    }

    #[test]
    fn executor_validates_like_the_simulator() {
        let link: LinkFactory = Arc::new(|| Box::new(StaticLinks::none()));
        let err = TrialExecutor::new(
            topology::line(3).unwrap(),
            coin_factory(),
            Assignment::relays(2),
            link.clone(),
            StopCondition::max_rounds(),
            SimConfig::default(),
        )
        .expect_err("size mismatch must be rejected");
        assert!(matches!(err, SimError::AssignmentSizeMismatch { .. }));

        let err = TrialExecutor::new(
            topology::line(3).unwrap(),
            coin_factory(),
            Assignment::relays(3),
            link,
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(0),
        )
        .expect_err("zero horizon must be rejected");
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    #[should_panic(expected = "stop condition references node")]
    fn executor_rejects_out_of_range_stop_conditions() {
        let link: LinkFactory = Arc::new(|| Box::new(StaticLinks::none()));
        let _ = TrialExecutor::new(
            topology::line(3).unwrap(),
            coin_factory(),
            Assignment::relays(3),
            link,
            StopCondition::global_broadcast(DATA, NodeId::new(9)),
            SimConfig::default(),
        );
    }

    /// A link process that refuses to reset, counting its constructions.
    struct NoReset {
        _probe: Arc<()>,
    }
    impl LinkProcess for NoReset {
        fn class(&self) -> AdversaryClass {
            AdversaryClass::Oblivious
        }
        fn decide(
            &mut self,
            _view: &AdversaryView<'_>,
            _rng: &mut dyn RngCore,
        ) -> crate::link::LinkDecision {
            crate::link::LinkDecision::none()
        }
    }

    #[test]
    fn non_resettable_links_are_rebuilt_from_the_factory() {
        let probe = Arc::new(());
        let handle = Arc::clone(&probe);
        let link: LinkFactory = Arc::new(move || {
            Box::new(NoReset {
                _probe: Arc::clone(&handle),
            })
        });
        let mut executor = TrialExecutor::new(
            topology::line(4).unwrap(),
            coin_factory(),
            Assignment::global(4, NodeId::new(0)),
            link,
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(5),
        )
        .unwrap();
        // strong count: probe + factory capture + 1 live link instance.
        assert_eq!(Arc::strong_count(&probe), 3);
        let _ = executor.execute(1, RecordMode::None);
        let _ = executor.execute(2, RecordMode::None);
        // Still exactly one live instance: each trial's rebuild replaced it.
        assert_eq!(Arc::strong_count(&probe), 3);
    }

    #[test]
    fn resettable_links_are_reused_not_rebuilt() {
        let builds = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&builds);
        let link: LinkFactory = Arc::new(move || {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Box::new(StaticLinks::all())
        });
        let mut executor = TrialExecutor::new(
            topology::dual_clique(6).unwrap(),
            coin_factory(),
            Assignment::global(6, NodeId::new(0)),
            link,
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(5),
        )
        .unwrap();
        for seed in 0..4 {
            let _ = executor.execute(seed, RecordMode::None);
        }
        assert_eq!(
            builds.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "a resettable link process is built exactly once"
        );
    }
}
