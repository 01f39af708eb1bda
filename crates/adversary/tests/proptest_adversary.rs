//! Property-based tests for the adversary crate: every link process only ever
//! proposes genuine dynamic edges, respects its declared capability class,
//! and behaves deterministically per seed.

use std::sync::Arc;

use dradio_adversary::{
    BraceletOblivious, DecayAwareOblivious, DenseSparseOnline, GilbertElliottLinks,
    GreedyCollisionOnline, IidLinks, OmniscientOffline, ScheduleLinks,
};
use dradio_graphs::{topology, DualGraph, NodeId};
use dradio_sim::sampling::bernoulli;
use dradio_sim::{
    Action, AdversaryClass, Assignment, LinkProcess, Message, MessageKind, Process, ProcessContext,
    ProcessFactory, RecordMode, Role, Round, SimConfig, Simulator, StopCondition,
};
use proptest::prelude::*;
use rand::RngCore;

const DATA: MessageKind = MessageKind::new(1);

struct Talker {
    p: f64,
    msg: Option<Message>,
}

impl Process for Talker {
    fn on_round(&mut self, _round: Round, rng: &mut dyn RngCore) -> Action {
        match &self.msg {
            Some(m) if bernoulli(rng, self.p) => Action::Transmit(m.clone()),
            _ => Action::Listen,
        }
    }
    fn transmit_probability(&self, _round: Round) -> f64 {
        if self.msg.is_some() {
            self.p
        } else {
            0.0
        }
    }
}

fn talker_factory(p: f64) -> ProcessFactory {
    Arc::new(move |ctx: &ProcessContext| {
        let msg = (ctx.role != Role::Relay).then(|| Message::plain(ctx.id, DATA, 0));
        Box::new(Talker { p, msg }) as Box<dyn Process>
    })
}

/// Builds one of the supported adversaries by index (bracelet gets its own
/// test because it needs the bracelet metadata).
fn make_adversary(index: usize, n: usize) -> Box<dyn LinkProcess> {
    match index % 7 {
        0 => Box::new(IidLinks::new(0.4)),
        1 => Box::new(GilbertElliottLinks::new(0.1, 0.2)),
        2 => Box::new(ScheduleLinks::new(vec![vec![], vec![]])),
        3 => Box::new(DecayAwareOblivious::for_network(n)),
        4 => Box::new(DenseSparseOnline::default()),
        5 => Box::new(GreedyCollisionOnline::new()),
        _ => Box::new(OmniscientOffline::new()),
    }
}

fn arb_dual() -> impl Strategy<Value = DualGraph> {
    prop_oneof![
        (4usize..24).prop_map(|half| topology::dual_clique(2 * half.max(2)).unwrap()),
        (2usize..5).prop_map(|k| topology::bracelet(k).unwrap().into_dual()),
        (3usize..6, 3usize..6)
            .prop_map(|(c, r)| topology::grid_geometric(c, r, 1.0, 1.45).unwrap()),
    ]
}

fn run(
    dual: &DualGraph,
    adversary: Box<dyn LinkProcess>,
    seed: u64,
    rounds: usize,
) -> dradio_sim::ExecutionOutcome {
    run_mode(dual, adversary, seed, rounds, RecordMode::Full)
}

fn run_mode(
    dual: &DualGraph,
    adversary: Box<dyn LinkProcess>,
    seed: u64,
    rounds: usize,
    mode: RecordMode,
) -> dradio_sim::ExecutionOutcome {
    let n = dual.len();
    let broadcasters: Vec<NodeId> = NodeId::all(n).filter(|u| u.index() % 2 == 0).collect();
    Simulator::new(
        dual.clone(),
        talker_factory(0.4),
        Assignment::local(n, &broadcasters),
        adversary,
        SimConfig::default()
            .with_seed(seed)
            .with_max_rounds(rounds)
            .with_record_mode(mode),
    )
    .expect("valid simulation")
    .run(StopCondition::max_rounds())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every adversary only ever activates genuine dynamic edges (the engine
    /// would filter others, so we assert the rejected counter stays zero) and
    /// executions are deterministic per seed.
    #[test]
    fn adversaries_activate_only_dynamic_edges(
        dual in arb_dual(),
        adversary_index in 0usize..7,
        seed in 0u64..200,
    ) {
        let a = run(&dual, make_adversary(adversary_index, dual.len()), seed, 15);
        prop_assert_eq!(a.metrics.rejected_link_edges, 0, "adversary {} proposed invalid edges", adversary_index);
        for record in a.history.records() {
            for edge in &record.active_dynamic_edges {
                let (u, v) = edge.endpoints();
                prop_assert!(dual.g_prime().has_edge(u, v));
                prop_assert!(!dual.g().has_edge(u, v));
            }
        }
        let b = run(&dual, make_adversary(adversary_index, dual.len()), seed, 15);
        prop_assert_eq!(a.history, b.history);
    }

    /// The declared capability classes are what the experiments assume.
    #[test]
    fn declared_classes_are_stable(n in 4usize..64) {
        prop_assert_eq!(IidLinks::new(0.3).class(), AdversaryClass::Oblivious);
        prop_assert_eq!(GilbertElliottLinks::new(0.1, 0.1).class(), AdversaryClass::Oblivious);
        prop_assert_eq!(ScheduleLinks::new(vec![]).class(), AdversaryClass::Oblivious);
        prop_assert_eq!(DecayAwareOblivious::for_network(n).class(), AdversaryClass::Oblivious);
        prop_assert_eq!(DenseSparseOnline::default().class(), AdversaryClass::OnlineAdaptive);
        prop_assert_eq!(GreedyCollisionOnline::new().class(), AdversaryClass::OnlineAdaptive);
        prop_assert_eq!(OmniscientOffline::new().class(), AdversaryClass::OfflineAdaptive);
    }

    /// Audit of the engine's history-free fast path: every adversary runs
    /// under the requested `RecordMode::None` and returns no history. An
    /// oblivious one reads nothing; an adaptive one reads the same rounds
    /// (transmitters and deliveries) in both modes. Either way the measured
    /// metrics are identical to the `Full` run.
    #[test]
    fn oblivious_adversaries_engage_the_fast_path(
        dual in arb_dual(),
        adversary_index in 0usize..7,
        seed in 0u64..100,
    ) {
        let class = make_adversary(adversary_index, dual.len()).class();
        let full = run_mode(&dual, make_adversary(adversary_index, dual.len()), seed, 12, RecordMode::Full);
        let fast = run_mode(&dual, make_adversary(adversary_index, dual.len()), seed, 12, RecordMode::None);
        prop_assert_eq!(full.metrics, fast.metrics, "recording must not change behaviour");
        prop_assert_eq!(full.rounds_executed, fast.rounds_executed);
        if class == AdversaryClass::Oblivious {
            prop_assert_eq!(fast.record_mode, RecordMode::None, "fast path must engage");
            prop_assert!(fast.history.is_empty());
        } else {
            prop_assert_eq!(fast.record_mode, RecordMode::None, "the requested mode is returned");
            prop_assert!(fast.history.is_empty(), "the view's rounds are not returned");
            prop_assert_eq!(fast.completion_round, full.completion_round);
            prop_assert_eq!(full.history.len(), full.rounds_executed);
        }
    }

    /// The bracelet attacker (oblivious, but constructed from topology
    /// metadata) also stays on the fast path.
    #[test]
    fn bracelet_attacker_engages_the_fast_path(k in 2usize..5, seed in 0u64..50) {
        let bracelet = topology::bracelet(k).unwrap();
        let dual = bracelet.dual().clone();
        let full = run_mode(&dual, Box::new(BraceletOblivious::new(&bracelet)), seed, 10, RecordMode::Full);
        let fast = run_mode(&dual, Box::new(BraceletOblivious::new(&bracelet)), seed, 10, RecordMode::None);
        prop_assert_eq!(full.metrics, fast.metrics);
        prop_assert_eq!(fast.record_mode, RecordMode::None);
        prop_assert!(fast.history.is_empty());
    }

    /// The bracelet attacker produces valid decisions on bracelets of any
    /// band length and its predictions cover exactly the band-length horizon.
    #[test]
    fn bracelet_attacker_is_well_formed(k in 2usize..6, seed in 0u64..100) {
        let bracelet = topology::bracelet(k).unwrap();
        let dual = bracelet.dual().clone();
        let outcome = run(&dual, Box::new(BraceletOblivious::new(&bracelet)), seed, 12);
        prop_assert_eq!(outcome.metrics.rejected_link_edges, 0);
        // In every recorded round the attacker either activated nothing or
        // every dynamic edge (it is an all-or-nothing strategy).
        let total = dual.dynamic_edges().len();
        for record in outcome.history.records() {
            let active = record.active_dynamic_edges.len();
            prop_assert!(active == 0 || active == total, "unexpected partial activation {active}/{total}");
        }
    }

    /// The omniscient blocker never blocks an unblockable delivery: when it
    /// activates edges, each added edge connects a listener to a transmitter.
    #[test]
    fn omniscient_blocker_edges_touch_a_transmitter(
        half in 3usize..16,
        seed in 0u64..100,
    ) {
        let dual = topology::dual_clique(2 * half).unwrap();
        let outcome = run(&dual, Box::new(OmniscientOffline::new()), seed, 12);
        for record in outcome.history.records() {
            for edge in &record.active_dynamic_edges {
                let (u, v) = edge.endpoints();
                let u_transmits = record.transmitters.contains(&u);
                let v_transmits = record.transmitters.contains(&v);
                prop_assert!(u_transmits || v_transmits, "blocking edge touches no transmitter");
                prop_assert!(!(u_transmits && v_transmits), "blocking edge between two transmitters is useless");
            }
        }
    }

    /// Dense/sparse decisions are all-or-nothing and consistent with the
    /// expected-transmitter threshold.
    #[test]
    fn dense_sparse_is_all_or_nothing(half in 3usize..20, seed in 0u64..100) {
        let dual = topology::dual_clique(2 * half).unwrap();
        let total = dual.dynamic_edges().len();
        let outcome = run(&dual, Box::new(DenseSparseOnline::default()), seed, 15);
        for record in outcome.history.records() {
            let active = record.active_dynamic_edges.len();
            prop_assert!(active == 0 || active == total);
        }
    }
}

/// A focused determinism check for the stateful Gilbert–Elliott chain: the
/// same seed replays the same burst pattern even across separate simulator
/// instances (regression guard for adversary RNG stream separation).
#[test]
fn gilbert_elliott_bursts_replay_identically() {
    let dual = topology::dual_clique(12).unwrap();
    let pattern = |seed: u64| {
        let outcome = run(
            &dual,
            Box::new(GilbertElliottLinks::new(0.2, 0.3)),
            seed,
            40,
        );
        outcome
            .history
            .records()
            .iter()
            .map(|r| r.active_dynamic_edges.len())
            .collect::<Vec<_>>()
    };
    assert_eq!(pattern(5), pattern(5));
    assert_ne!(
        pattern(5),
        pattern(6),
        "different seeds should give different burst patterns"
    );
}
