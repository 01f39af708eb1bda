//! Link processes (adversaries) controlling the dynamic edges.

use std::fmt;
use std::sync::Arc;

use dradio_graphs::{DualGraph, DynamicEdgeIndex, Edge, NodeId};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

use crate::action::Action;
use crate::history::History;
use crate::process::{Assignment, ProcessFactory};
use crate::round::Round;
use crate::sampling::{bernoulli_fill, bernoulli_threshold, for_each_coin};

/// The three classic adversary capability classes of randomized analysis,
/// in increasing order of power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AdversaryClass {
    /// Must fix all link behaviour before the execution begins; sees only the
    /// network, the algorithm, and the round number.
    Oblivious,
    /// Sees the execution history through the previous round (and the
    /// algorithm's expected behaviour), but not the current round's coins.
    OnlineAdaptive,
    /// Additionally sees the current round's actions before fixing the links.
    OfflineAdaptive,
}

impl fmt::Display for AdversaryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversaryClass::Oblivious => write!(f, "oblivious"),
            AdversaryClass::OnlineAdaptive => write!(f, "online-adaptive"),
            AdversaryClass::OfflineAdaptive => write!(f, "offline-adaptive"),
        }
    }
}

/// The set of dynamic (`E' \ E`) edges a link process activates for one
/// round.
///
/// The engine filters out any proposed edge that is not actually a dynamic
/// edge of the network (reliable edges are always present and cannot be
/// removed; edges outside `G'` cannot be added), counting such proposals in
/// the metrics so buggy adversaries are visible.
///
/// [`LinkDecision::all_dynamic`] holds the shared network rather than a copy
/// of its edge list; the engine runs such a round over `G'` itself.
#[derive(Clone, Default)]
pub struct LinkDecision {
    edges: DecisionEdges,
}

/// Where a [`LinkDecision`]'s edges live.
#[derive(Clone)]
enum DecisionEdges {
    /// An explicit list.
    Listed(Vec<Edge>),
    /// Every dynamic edge of this network, in canonical order.
    AllDynamic(Arc<DualGraph>),
}

impl Default for DecisionEdges {
    fn default() -> Self {
        DecisionEdges::Listed(Vec::new())
    }
}

impl LinkDecision {
    /// Activate no dynamic edges: the round topology is exactly `G`.
    pub fn none() -> Self {
        LinkDecision::default()
    }

    /// Activate every dynamic edge of `dual`: the round topology is `G'`.
    ///
    /// Costs an [`Arc`] bump, not a copy: the decision shares the network
    /// and [`edges`](LinkDecision::edges) borrows its
    /// [`dynamic_index`](DualGraph::dynamic_index). Given the engine's own
    /// handle (the one [`AdversarySetup::dual`] lends), the executor skips
    /// per-edge validation and folds reception over `G'`'s rows directly.
    pub fn all_dynamic(dual: &Arc<DualGraph>) -> Self {
        LinkDecision {
            edges: DecisionEdges::AllDynamic(Arc::clone(dual)),
        }
    }

    /// Activate exactly the given edges.
    pub fn from_edges(edges: Vec<Edge>) -> Self {
        LinkDecision {
            edges: DecisionEdges::Listed(edges),
        }
    }

    /// The activated edges.
    pub fn edges(&self) -> &[Edge] {
        match &self.edges {
            DecisionEdges::Listed(edges) => edges,
            DecisionEdges::AllDynamic(dual) => dual.dynamic_index().edges(),
        }
    }

    /// Number of activated edges.
    pub fn len(&self) -> usize {
        self.edges().len()
    }

    /// Returns `true` if no dynamic edge is activated.
    pub fn is_empty(&self) -> bool {
        self.edges().is_empty()
    }

    /// Returns `true` if this is [`LinkDecision::all_dynamic`] over the very
    /// network `dual` points to (the decisions the executor folds over
    /// `G'`; an explicit list of every dynamic edge is not one).
    pub fn is_all_dynamic_of(&self, dual: &Arc<DualGraph>) -> bool {
        matches!(&self.edges, DecisionEdges::AllDynamic(own) if Arc::ptr_eq(own, dual))
    }
}

impl PartialEq for LinkDecision {
    fn eq(&self, other: &Self) -> bool {
        self.edges() == other.edges()
    }
}

impl Eq for LinkDecision {}

impl fmt::Debug for LinkDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = f.debug_struct("LinkDecision");
        match &self.edges {
            DecisionEdges::Listed(edges) => out.field("edges", edges),
            DecisionEdges::AllDynamic(dual) => {
                out.field("all_dynamic", &dual.dynamic_index().len())
            }
        };
        out.finish()
    }
}

/// Everything a link process may inspect before the execution begins: the
/// topology, the algorithm (process factory), the problem roles, the horizon,
/// and the simulation's collision-detection setting.
///
/// All three adversary classes receive this setup — "the network topology and
/// algorithm description" are known even to the oblivious adversary.
pub struct AdversarySetup<'a> {
    /// The dual graph being simulated, behind the engine's shared handle:
    /// adversaries that keep the network around across rounds should store
    /// `setup.dual.clone()` (an [`Arc`] bump), never a deep graph copy, and
    /// read the dynamic edges from its shared
    /// [`dynamic_index`](DualGraph::dynamic_index) rather than copying them.
    pub dual: &'a Arc<DualGraph>,
    /// The algorithm under attack (so the adversary can pre-simulate it).
    pub factory: &'a ProcessFactory,
    /// The problem-level role assignment.
    pub assignment: &'a Assignment,
    /// Maximum number of rounds the execution may last.
    pub horizon: usize,
}

/// The per-round information a link process is entitled to see, scoped by its
/// [`AdversaryClass`].
///
/// The engine constructs the view: oblivious adversaries get only the round
/// number, online adaptive adversaries additionally get the [`History`]
/// through the previous round and the per-node transmit probabilities implied
/// by the algorithm's current state, and offline adaptive adversaries also
/// get the actual actions of the current round. The view is the same under
/// every [`RecordMode`](crate::RecordMode) (see [`AdversaryView::history`]).
#[derive(Debug)]
pub struct AdversaryView<'a> {
    round: Round,
    n: usize,
    history: Option<&'a History>,
    transmit_probabilities: Option<&'a [f64]>,
    actions: Option<&'a [Action]>,
}

impl<'a> AdversaryView<'a> {
    /// Creates a view; intended for the engine and for adversary unit tests.
    pub fn new(
        round: Round,
        n: usize,
        history: Option<&'a History>,
        transmit_probabilities: Option<&'a [f64]>,
        actions: Option<&'a [Action]>,
    ) -> Self {
        AdversaryView {
            round,
            n,
            history,
            transmit_probabilities,
            actions,
        }
    }

    /// The round being decided.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of nodes in the network.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Execution history through the previous round (adaptive classes only).
    ///
    /// In every [`RecordMode`](crate::RecordMode) it holds one record per
    /// executed round, with that round's transmitters and deliveries. Its
    /// [`active_dynamic_edges`](crate::RoundRecord::active_dynamic_edges)
    /// are always empty: the adversary chose them itself, and only a
    /// [`RecordMode::Full`](crate::RecordMode::Full) outcome carries them.
    /// So nothing an adversary reads depends on the record mode.
    pub fn history(&self) -> Option<&History> {
        self.history
    }

    /// Per-node probabilities of transmitting this round given the processes'
    /// current state (adaptive classes only).
    pub fn transmit_probabilities(&self) -> Option<&[f64]> {
        self.transmit_probabilities
    }

    /// The actual actions of this round (offline adaptive only).
    pub fn actions(&self) -> Option<&[Action]> {
        self.actions
    }

    /// Expected number of transmitters this round, `E[|X| | S]` in the
    /// notation of Theorem 3.1 (adaptive classes only).
    pub fn expected_transmitters(&self) -> Option<f64> {
        self.transmit_probabilities.map(|p| p.iter().sum())
    }
}

/// A link process: the adversary deciding, round by round, which dynamic
/// edges are present.
pub trait LinkProcess: Send {
    /// The capability class this adversary declares. The engine uses it to
    /// scope the [`AdversaryView`]; declaring a weaker class never grants
    /// more information.
    fn class(&self) -> AdversaryClass;

    /// Called once before round 0 with everything the adversary may
    /// pre-compute from.
    fn on_start(&mut self, _setup: &AdversarySetup<'_>, _rng: &mut dyn RngCore) {}

    /// Chooses the dynamic edges for the round described by `view`.
    fn decide(&mut self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision;

    /// Restores the process to its just-constructed state so the same boxed
    /// value can serve another independent execution, returning `true` on
    /// success.
    ///
    /// [`TrialExecutor`](crate::TrialExecutor) calls this between trials; on
    /// `false` (the default) it rebuilds the process from its
    /// [`LinkFactory`](crate::LinkFactory) recipe instead — always correct,
    /// just one boxing per trial slower. The engine invokes
    /// [`LinkProcess::on_start`] at the beginning of *every* execution, so
    /// state that is unconditionally (re)initialized there needs no handling
    /// here; only return `true` if everything else is back to its
    /// post-construction value.
    fn reset(&mut self) -> bool {
        false
    }

    /// Short adversary name for traces and tables.
    fn name(&self) -> &'static str {
        "link-process"
    }

    /// Whether the engine may evaluate this process's decisions itself. The
    /// default, [`LinkProfile::Opaque`], is always correct: the engine calls
    /// [`LinkProcess::decide`] every round.
    ///
    /// Under the collision rule a listener's round depends only on the
    /// dynamic edges between it and a transmitter. So when the class is
    /// oblivious, no history is recorded and the profile is not
    /// [`LinkProfile::Opaque`], the executor never calls `decide`: each
    /// round it walks the dynamic edges joining a transmitter to a
    /// listener and hears each one that is on at its listener. Under
    /// [`LinkProfile::Iid`] it reads those edges' coins straight from the
    /// adversary stream; under [`LinkProfile::GilbertElliott`] it keeps
    /// every edge's chain itself and advances them all over coins read in
    /// bulk. Under [`RecordMode::Full`](crate::RecordMode::Full) the
    /// history lists every active edge, so `decide` runs as usual; that
    /// path is the reference the profile path is tested against.
    ///
    /// # Contract for `Iid { p }`
    ///
    /// Let `m` be the number of dynamic edges, edge `k` the `k`-th of
    /// [`DualGraph::dynamic_index`]`().edges()` (canonical order), and
    /// `start` the adversary stream's word position when
    /// [`LinkProcess::on_start`] returns.
    ///
    /// * The class is [`AdversaryClass::Oblivious`]. `on_start` may draw
    ///   anything; the profile is read once per execution, after it.
    /// * In round `r`, [`LinkProcess::decide`] activates exactly the edges
    ///   `k` for which
    ///   [`sampling::bernoulli(rng, p)`](crate::sampling::bernoulli) holds,
    ///   drawing the coins in canonical order: one `next_u64` per edge for
    ///   `0 < p < 1`, so edge `k`'s coin is the `next_u64` at word
    ///   `start + 2·(r·m + k)`; none otherwise (every edge for `p ≥ 1`, no
    ///   edge for `p ≤ 0`).
    /// * `decide` draws nothing else, ignores its view, and proposes no
    ///   edge outside `E' \ E`.
    ///
    /// # Contract for `GilbertElliott { p_fail, p_recover, p_start_good }`
    ///
    /// With `m`, edge `k` and canonical order as above, and `begin` the
    /// adversary stream's word position when [`LinkProcess::on_start`] is
    /// called:
    ///
    /// * The class is [`AdversaryClass::Oblivious`], and
    ///   `0 < p_fail < 1` and `0 < p_recover < 1`.
    /// * `on_start` draws one
    ///   [`sampling::bernoulli(rng, p_start_good)`](crate::sampling::bernoulli)
    ///   per dynamic edge, in canonical order, and nothing else: edge `k`'s
    ///   chain starts good iff its draw holds (no coin is drawn when
    ///   `p_start_good` is at most 0 or at least 1).
    /// * In round `r`, [`LinkProcess::decide`] activates exactly the edges
    ///   whose chain is good at the start of `r`. Then it draws exactly one
    ///   coin (`bernoulli`) per edge, in canonical order: a good chain turns
    ///   bad iff its coin is below `p_fail`, a bad one turns good iff its
    ///   coin is below `p_recover`.
    /// * `decide` draws nothing else, ignores its view, and proposes no
    ///   edge outside `E' \ E`.
    ///
    /// A chain with a transition probability of 0 or 1 draws a variable
    /// number of coins (`bernoulli` draws none at the extremes), so it must
    /// stay `Opaque`.
    ///
    /// Violating either contract silently desynchronizes the profile path
    /// from `decide`; the root `integration_link_profile` suite pins the
    /// two against each other.
    fn link_profile(&self) -> LinkProfile {
        LinkProfile::Opaque
    }
}

/// Whether the engine may evaluate a link process's decisions itself (see
/// [`LinkProcess::link_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LinkProfile {
    /// No structure assumed: the engine calls [`LinkProcess::decide`] every
    /// round.
    #[default]
    Opaque,
    /// Each dynamic edge is present in each round independently with
    /// probability `p`, drawn from the adversary stream as the
    /// [`LinkProcess::link_profile`] contract lays out.
    Iid {
        /// Per-round presence probability (clamped semantics of
        /// [`sampling::bernoulli`](crate::sampling::bernoulli)).
        p: f64,
    },
    /// Each dynamic edge follows its own two-state (good/bad) Markov chain
    /// and is present while good, drawn from the adversary stream as the
    /// [`LinkProcess::link_profile`] contract lays out.
    GilbertElliott {
        /// Per-round probability a good chain turns bad, in `(0, 1)`.
        p_fail: f64,
        /// Per-round probability a bad chain turns good, in `(0, 1)`.
        p_recover: f64,
        /// Probability a chain starts good (clamped semantics of
        /// [`sampling::bernoulli`](crate::sampling::bernoulli)).
        p_start_good: f64,
    },
}

/// What [`sampling::bernoulli`](crate::sampling::bernoulli) with
/// probability `p` does.
#[derive(Debug, Clone, Copy)]
enum CoinRule {
    /// `p ≤ 0`: false, and no coin is drawn.
    Never,
    /// `p ≥ 1`: true, and no coin is drawn.
    Always,
    /// True iff the coin `x` it draws has `(x >> 11) < threshold`.
    Below(u64),
}

impl CoinRule {
    fn of(p: f64) -> CoinRule {
        if p <= 0.0 {
            CoinRule::Never
        } else if p >= 1.0 {
            CoinRule::Always
        } else {
            CoinRule::Below(bernoulli_threshold(p))
        }
    }
}

/// How the engine evaluates one execution's link decisions when the link
/// process declares a profile it may use (see
/// [`LinkProcess::link_profile`]).
#[derive(Debug)]
pub(crate) enum LinkPlan<'a> {
    /// [`LinkProfile::Iid`]: seek each heard edge's coin.
    Iid(IidPlan),
    /// [`LinkProfile::GilbertElliott`]: run every chain, in bulk.
    GilbertElliott(GePlan<'a>),
}

impl<'a> LinkPlan<'a> {
    /// The plan for `profile`, or `None` for [`LinkProfile::Opaque`]. `rng`
    /// is the adversary stream standing where `on_start` left it, and
    /// `begin` its word position when `on_start` was called; `chains` is
    /// reused storage for the Gilbert–Elliott chain states.
    pub(crate) fn new(
        profile: LinkProfile,
        begin: u128,
        rng: &mut ChaCha8Rng,
        dual: &DualGraph,
        chains: &'a mut Vec<bool>,
    ) -> Option<LinkPlan<'a>> {
        match profile {
            LinkProfile::Opaque => None,
            LinkProfile::Iid { p } => Some(LinkPlan::Iid(IidPlan::new(p, rng, dual))),
            LinkProfile::GilbertElliott {
                p_fail,
                p_recover,
                p_start_good,
            } => {
                let flip = [p_recover, p_fail].map(bernoulli_threshold);
                let plan = GePlan::new(flip, p_start_good, begin, rng, dual, chains);
                Some(LinkPlan::GilbertElliott(plan))
            }
        }
    }

    // lint: hot-path
    /// Hears the dynamic edges of `round` that reception can see: each
    /// active edge joining one of `transmitters` to a node `w` for which
    /// `transmits` is false is passed to `hear` as `(w, transmitter)`, once.
    /// Rounds must be heard in order, each once.
    pub(crate) fn hear_round(
        &mut self,
        dual: &DualGraph,
        round: Round,
        transmitters: impl Iterator<Item = usize>,
        transmits: impl Fn(usize) -> bool,
        rng: &mut ChaCha8Rng,
        hear: impl FnMut(usize, usize),
    ) {
        match self {
            LinkPlan::Iid(plan) => match plan.rule {
                CoinRule::Never => {}
                CoinRule::Always => {
                    let index = dual.dynamic_index();
                    hear_present(index, transmitters, transmits, |_| true, hear);
                }
                CoinRule::Below(threshold) => {
                    // Seek to exactly the word where `decide` would draw
                    // edge k's coin.
                    let round_start = plan.start + 2 * plan.coins_per_round * round.index() as u128;
                    let present = |k: u32| {
                        rng.set_word_pos(round_start + 2 * u128::from(k));
                        (rng.next_u64() >> 11) < threshold
                    };
                    hear_present(dual.dynamic_index(), transmitters, transmits, present, hear);
                }
            },
            LinkPlan::GilbertElliott(plan) => {
                if round.index() > 0 {
                    // The transition out of the previous round, which
                    // `decide` drew at its end.
                    step_chains(plan.chains, plan.flip, rng);
                }
                let chains = &*plan.chains;
                let present = |k: u32| chains[k as usize];
                hear_present(dual.dynamic_index(), transmitters, transmits, present, hear);
            }
        }
    }
    // lint: end-hot-path
}

/// One execution's plan for a [`LinkProfile::Iid`] adversary: the coin
/// rule, where round 0's coins start in the adversary stream, and how many
/// coins each round holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IidPlan {
    rule: CoinRule,
    start: u128,
    coins_per_round: u128,
}

impl IidPlan {
    /// The plan for presence probability `p`, with the adversary stream
    /// `rng` standing where `on_start` left it. Builds the network's
    /// dynamic-edge index unless `p ≤ 0`.
    fn new(p: f64, rng: &ChaCha8Rng, dual: &DualGraph) -> IidPlan {
        let rule = CoinRule::of(p);
        let coins_per_round = match rule {
            CoinRule::Below(_) => dual.dynamic_index().len() as u128,
            CoinRule::Never | CoinRule::Always => 0,
        };
        IidPlan {
            rule,
            start: rng.get_word_pos(),
            coins_per_round,
        }
    }
}

/// One execution's plan for a [`LinkProfile::GilbertElliott`] adversary:
/// every dynamic edge's chain state, indexed canonically (`true` for good),
/// and the coin thresholds that flip a chain.
#[derive(Debug)]
pub(crate) struct GePlan<'a> {
    chains: &'a mut Vec<bool>,
    /// A chain in state `s` flips iff its coin `x` has
    /// `(x >> 11) < flip[s as usize]`: `[p_recover, p_fail]` as thresholds.
    flip: [u64; 2],
}

impl<'a> GePlan<'a> {
    /// The plan for the chain thresholds `flip` and start probability
    /// `p_start_good`, with the adversary stream `rng` standing where
    /// `on_start` left it and `begin` its word position when `on_start` was
    /// called. Replays `on_start`'s draws into `chains`, then leaves `rng`
    /// where `on_start` left it.
    fn new(
        flip: [u64; 2],
        p_start_good: f64,
        begin: u128,
        rng: &mut ChaCha8Rng,
        dual: &DualGraph,
        chains: &'a mut Vec<bool>,
    ) -> GePlan<'a> {
        chains.clear();
        chains.resize(dual.dynamic_index().len(), false);
        let resume = rng.get_word_pos();
        rng.set_word_pos(begin);
        bernoulli_fill(rng, p_start_good, chains);
        rng.set_word_pos(resume);
        GePlan { chains, flip }
    }
}

// lint: hot-path
/// Hears the dynamic edges of a round that reception can see: each edge `k`
/// joining one of `transmitters` to a node `w` for which `transmits` is
/// false, and for which `present(k)` holds, is passed to `hear` as
/// `(w, transmitter)`, once. Edges between two listeners or two
/// transmitters never change a reception, so `present` is never asked
/// about them.
fn hear_present(
    index: &DynamicEdgeIndex,
    transmitters: impl Iterator<Item = usize>,
    transmits: impl Fn(usize) -> bool,
    mut present: impl FnMut(u32) -> bool,
    mut hear: impl FnMut(usize, usize),
) {
    for t in transmitters {
        for &(w, k) in index.incident(NodeId::new(t)) {
            let w = w as usize;
            if !transmits(w) && present(k) {
                hear(w, t);
            }
        }
    }
}

/// Draws one coin per chain from `rng`, in order, and flips each chain
/// whose coin is below its state's threshold in `flip` (see
/// [`GePlan::flip`]): the same coins `bernoulli` would draw one by one,
/// read in bulk.
fn step_chains(chains: &mut [bool], flip: [u64; 2], rng: &mut ChaCha8Rng) {
    for_each_coin(rng, chains, |good, coin| {
        *good ^= coin < flip[usize::from(*good)]
    });
}
// lint: end-hot-path

/// Built-in oblivious link process with fixed behaviour: activate either none
/// or all of the dynamic edges in every round.
///
/// `StaticLinks::none()` turns the dual graph model into the static protocol
/// model over `G`; `StaticLinks::all()` turns it into the protocol model over
/// `G'`. Both are useful baselines and test fixtures. They declare
/// [`LinkProfile::Iid`] with `p = 0` and `p = 1`, which draw no coins.
#[derive(Debug, Clone)]
pub struct StaticLinks {
    include_all: bool,
    dual: Option<Arc<DualGraph>>,
}

impl StaticLinks {
    /// Never activate dynamic edges (communication happens over `G` only).
    pub fn none() -> Self {
        StaticLinks {
            include_all: false,
            dual: None,
        }
    }

    /// Activate every dynamic edge every round (communication over `G'`).
    pub fn all() -> Self {
        StaticLinks {
            include_all: true,
            dual: None,
        }
    }
}

impl LinkProcess for StaticLinks {
    fn class(&self) -> AdversaryClass {
        AdversaryClass::Oblivious
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, _rng: &mut dyn RngCore) {
        self.dual = Some(Arc::clone(setup.dual));
    }

    fn decide(&mut self, _view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
        match &self.dual {
            Some(dual) if self.include_all => LinkDecision::all_dynamic(dual),
            _ => LinkDecision::none(),
        }
    }

    fn reset(&mut self) -> bool {
        // `dual` is rewritten by `on_start` whenever it is read.
        true
    }

    fn name(&self) -> &'static str {
        if self.include_all {
            "static-all"
        } else {
            "static-none"
        }
    }

    fn link_profile(&self) -> LinkProfile {
        LinkProfile::Iid {
            p: if self.include_all { 1.0 } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dradio_graphs::topology;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    use crate::process::ProcessContext;

    struct Dummy;
    impl crate::process::Process for Dummy {
        fn on_round(&mut self, _round: Round, _rng: &mut dyn RngCore) -> Action {
            Action::Listen
        }
    }

    fn dummy_factory() -> ProcessFactory {
        Arc::new(|_ctx: &ProcessContext| Box::new(Dummy) as Box<dyn crate::process::Process>)
    }

    #[test]
    fn adversary_class_ordering_reflects_power() {
        assert!(AdversaryClass::Oblivious < AdversaryClass::OnlineAdaptive);
        assert!(AdversaryClass::OnlineAdaptive < AdversaryClass::OfflineAdaptive);
        assert_eq!(AdversaryClass::Oblivious.to_string(), "oblivious");
    }

    #[test]
    fn link_decision_constructors() {
        let dual = Arc::new(topology::dual_clique(8).unwrap());
        assert!(LinkDecision::none().is_empty());
        let all = LinkDecision::all_dynamic(&dual);
        assert_eq!(all.len(), dual.dynamic_edges().len());
        assert!(!all.is_empty());
        assert_eq!(all.edges(), dual.dynamic_edges());
        assert_eq!(all, LinkDecision::from_edges(dual.dynamic_edges().to_vec()));
        assert!(all.is_all_dynamic_of(&dual));
        let copy = Arc::new(topology::dual_clique(8).unwrap());
        assert!(!all.is_all_dynamic_of(&copy), "only the very same network");
        assert!(!LinkDecision::from_edges(dual.dynamic_edges().to_vec()).is_all_dynamic_of(&dual));
    }

    #[test]
    fn view_exposes_only_what_it_is_given() {
        let view = AdversaryView::new(Round::new(3), 10, None, None, None);
        assert_eq!(view.round(), Round::new(3));
        assert_eq!(view.n(), 10);
        assert!(view.history().is_none());
        assert!(view.transmit_probabilities().is_none());
        assert!(view.actions().is_none());
        assert!(view.expected_transmitters().is_none());
    }

    #[test]
    fn expected_transmitters_sums_probabilities() {
        let probs = vec![0.5, 0.25, 0.0];
        let view = AdversaryView::new(Round::ZERO, 3, None, Some(&probs), None);
        assert!((view.expected_transmitters().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn static_links_decisions() {
        let dual = Arc::new(topology::dual_clique(8).unwrap());
        let factory = dummy_factory();
        let assignment = Assignment::relays(8);
        let setup = AdversarySetup {
            dual: &dual,
            factory: &factory,
            assignment: &assignment,
            horizon: 10,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);

        let mut none = StaticLinks::none();
        none.on_start(&setup, &mut rng);
        let view = AdversaryView::new(Round::ZERO, 8, None, None, None);
        assert!(none.decide(&view, &mut rng).is_empty());
        assert_eq!(none.name(), "static-none");

        let mut all = StaticLinks::all();
        all.on_start(&setup, &mut rng);
        assert_eq!(
            all.decide(&view, &mut rng).len(),
            dual.dynamic_edges().len()
        );
        assert_eq!(all.name(), "static-all");
        assert_eq!(all.class(), AdversaryClass::Oblivious);
        assert_eq!(all.link_profile(), LinkProfile::Iid { p: 1.0 });
        assert_eq!(none.link_profile(), LinkProfile::Iid { p: 0.0 });
    }
}
