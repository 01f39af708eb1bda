//! Random environmental link processes.
//!
//! The paper argues (Section 1) that simple independent-loss models do a poor
//! job of capturing real networks, but they remain the natural "benign
//! environment" baseline for upper-bound experiments. [`IidLinks`] flips an
//! independent coin per dynamic edge per round; [`GilbertElliottLinks`] runs
//! a two-state (good/bad) Markov chain per edge, reproducing the bursty link
//! behaviour measured by the β-factor study the paper cites.
//!
//! Both are *oblivious*: the per-round coin flips are driven by the adversary
//! RNG stream, fixed independently of the execution, and could equivalently
//! have been tabulated before round 0. Both declare exactly that through a
//! [`LinkProfile`], so the engine evaluates them instead of calling
//! `decide`: under [`LinkProfile::Iid`] it reads only the coins of edges
//! that touch a transmitter, and under [`LinkProfile::GilbertElliott`] it
//! runs the chains itself over coins read in bulk.

use std::sync::Arc;

use dradio_graphs::DualGraph;
use dradio_sim::sampling::bernoulli;
use dradio_sim::{
    AdversaryClass, AdversarySetup, AdversaryView, LinkDecision, LinkProcess, LinkProfile,
};
use rand::RngCore;

/// Each dynamic edge is present in each round independently with probability
/// `p`.
///
/// # Example
///
/// ```
/// use dradio_adversary::IidLinks;
/// let links = IidLinks::new(0.5);
/// assert!((links.probability() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct IidLinks {
    p: f64,
    dual: Option<Arc<DualGraph>>,
}

impl IidLinks {
    /// Creates the process with per-round edge presence probability `p`
    /// (clamped to `[0, 1]`).
    pub fn new(p: f64) -> Self {
        IidLinks {
            p: p.clamp(0.0, 1.0),
            dual: None,
        }
    }

    /// The per-round presence probability.
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl LinkProcess for IidLinks {
    fn class(&self) -> AdversaryClass {
        AdversaryClass::Oblivious
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, _rng: &mut dyn RngCore) {
        self.dual = Some(Arc::clone(setup.dual));
    }

    fn decide(&mut self, _view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        let Some(dual) = &self.dual else {
            return LinkDecision::none();
        };
        let edges = dual
            .dynamic_index()
            .edges()
            .iter()
            .copied()
            .filter(|_| bernoulli(rng, self.p))
            .collect();
        LinkDecision::from_edges(edges)
    }

    fn reset(&mut self) -> bool {
        // `dual` is rewritten by `on_start`; there is no other state.
        true
    }

    fn name(&self) -> &'static str {
        "iid-links"
    }

    fn link_profile(&self) -> LinkProfile {
        // `decide` draws one `bernoulli(rng, p)` per dynamic edge in
        // canonical order and nothing else: the `Iid` contract verbatim.
        LinkProfile::Iid { p: self.p }
    }
}

/// Per-edge Gilbert–Elliott (bursty) link process: each dynamic edge follows
/// its own two-state Markov chain; the edge is present while the chain is in
/// the *good* state.
#[derive(Debug, Clone)]
pub struct GilbertElliottLinks {
    /// Probability of moving good → bad between rounds.
    p_fail: f64,
    /// Probability of moving bad → good between rounds.
    p_recover: f64,
    /// Probability of starting in the good state.
    p_start_good: f64,
    dual: Option<Arc<DualGraph>>,
    good: Vec<bool>,
    started: bool,
}

impl GilbertElliottLinks {
    /// Creates the process. `p_fail` is the per-round probability a good edge
    /// turns bad, `p_recover` the probability a bad edge recovers; both are
    /// clamped to `[0, 1]`.
    pub fn new(p_fail: f64, p_recover: f64) -> Self {
        GilbertElliottLinks {
            p_fail: p_fail.clamp(0.0, 1.0),
            p_recover: p_recover.clamp(0.0, 1.0),
            p_start_good: 0.5,
            dual: None,
            good: Vec::new(),
            started: false,
        }
    }

    /// Sets the probability an edge starts in the good state (default 0.5).
    pub fn with_start_probability(mut self, p: f64) -> Self {
        self.p_start_good = p.clamp(0.0, 1.0);
        self
    }

    /// The long-run fraction of time an edge spends in the good state,
    /// `p_recover / (p_fail + p_recover)`.
    pub fn stationary_availability(&self) -> f64 {
        if self.p_fail + self.p_recover == 0.0 {
            self.p_start_good
        } else {
            self.p_recover / (self.p_fail + self.p_recover)
        }
    }
}

impl LinkProcess for GilbertElliottLinks {
    fn class(&self) -> AdversaryClass {
        AdversaryClass::Oblivious
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, rng: &mut dyn RngCore) {
        let edges = setup.dual.dynamic_index().edges();
        self.good.clear();
        self.good
            .extend(edges.iter().map(|_| bernoulli(rng, self.p_start_good)));
        self.dual = Some(Arc::clone(setup.dual));
        self.started = true;
    }

    fn decide(&mut self, _view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        let Some(dual) = &self.dual else {
            return LinkDecision::none();
        };
        let mut active = Vec::new();
        for (i, edge) in dual.dynamic_index().edges().iter().enumerate() {
            if self.good[i] {
                active.push(*edge);
                if bernoulli(rng, self.p_fail) {
                    self.good[i] = false;
                }
            } else if bernoulli(rng, self.p_recover) {
                self.good[i] = true;
            }
        }
        LinkDecision::from_edges(active)
    }

    fn reset(&mut self) -> bool {
        // `dual`, `good`, and `started` are all rewritten by `on_start`.
        true
    }

    fn name(&self) -> &'static str {
        "gilbert-elliott"
    }

    fn link_profile(&self) -> LinkProfile {
        // `on_start` draws one `bernoulli(rng, p_start_good)` per dynamic
        // edge, and `decide` lists the good edges and then draws one
        // `bernoulli` per edge: exactly one coin each, unless a transition
        // probability is 0 or 1, where `bernoulli` draws none.
        let open = |p: f64| 0.0 < p && p < 1.0;
        if open(self.p_fail) && open(self.p_recover) {
            LinkProfile::GilbertElliott {
                p_fail: self.p_fail,
                p_recover: self.p_recover,
                p_start_good: self.p_start_good,
            }
        } else {
            LinkProfile::Opaque
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{run_with_beacon, setup_ctx};
    use dradio_graphs::topology;
    use dradio_sim::Round;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn iid_extremes_match_static_links() {
        let dual = topology::dual_clique(8).unwrap();
        let total = dual.dynamic_edges().len();

        let outcome = run_with_beacon(&dual, Box::new(IidLinks::new(0.0)), 10, 1);
        assert!(outcome
            .history
            .records()
            .iter()
            .all(|r| r.active_dynamic_edges.is_empty()));

        let outcome = run_with_beacon(&dual, Box::new(IidLinks::new(1.0)), 10, 1);
        assert!(outcome
            .history
            .records()
            .iter()
            .all(|r| r.active_dynamic_edges.len() == total));
    }

    #[test]
    fn iid_density_matches_probability() {
        let dual = topology::dual_clique(12).unwrap();
        let total = dual.dynamic_edges().len();
        let rounds = 200;
        let outcome = run_with_beacon(&dual, Box::new(IidLinks::new(0.3)), rounds, 2);
        let active: usize = outcome
            .history
            .records()
            .iter()
            .map(|r| r.active_dynamic_edges.len())
            .sum();
        let rate = active as f64 / (total * rounds) as f64;
        assert!((rate - 0.3).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn iid_clamps_probability() {
        assert_eq!(IidLinks::new(7.0).probability(), 1.0);
        assert_eq!(IidLinks::new(-7.0).probability(), 0.0);
    }

    #[test]
    fn iid_and_bursty_links_declare_profiles_degenerate_chains_do_not() {
        assert_eq!(
            IidLinks::new(0.3).link_profile(),
            LinkProfile::Iid { p: 0.3 }
        );
        assert_eq!(
            IidLinks::new(7.0).link_profile(),
            LinkProfile::Iid { p: 1.0 }
        );
        assert_eq!(
            GilbertElliottLinks::new(0.1, 0.2).link_profile(),
            LinkProfile::GilbertElliott {
                p_fail: 0.1,
                p_recover: 0.2,
                p_start_good: 0.5,
            }
        );
        // The start probability may be anything: its draws happen once, in
        // `on_start`, and `bernoulli`'s extremes draw nothing there.
        for p_start_good in [0.0, 0.3, 1.0] {
            assert_eq!(
                GilbertElliottLinks::new(0.3, 0.6)
                    .with_start_probability(p_start_good)
                    .link_profile(),
                LinkProfile::GilbertElliott {
                    p_fail: 0.3,
                    p_recover: 0.6,
                    p_start_good,
                }
            );
        }
        // A transition probability of 0 or 1 draws no coin, so the number
        // of coins a round draws depends on the chain states.
        for (p_fail, p_recover) in [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0), (7.0, -1.0)] {
            assert_eq!(
                GilbertElliottLinks::new(p_fail, p_recover).link_profile(),
                LinkProfile::Opaque,
                "({p_fail}, {p_recover}) is degenerate"
            );
        }
    }

    #[test]
    fn gilbert_elliott_stationary_availability() {
        let ge = GilbertElliottLinks::new(0.1, 0.3);
        assert!((ge.stationary_availability() - 0.75).abs() < 1e-12);
        let frozen = GilbertElliottLinks::new(0.0, 0.0).with_start_probability(1.0);
        assert_eq!(frozen.stationary_availability(), 1.0);
    }

    #[test]
    fn gilbert_elliott_produces_bursts() {
        // With slow transitions, consecutive rounds should frequently keep
        // the same edge state (that is the burstiness).
        let dual = topology::dual_clique(8).unwrap();
        let outcome = run_with_beacon(
            &dual,
            Box::new(GilbertElliottLinks::new(0.02, 0.02)),
            300,
            3,
        );
        let records = outcome.history.records();
        let mut same = 0usize;
        let mut compared = 0usize;
        for pair in records.windows(2) {
            let a: std::collections::BTreeSet<_> = pair[0].active_dynamic_edges.iter().collect();
            let b: std::collections::BTreeSet<_> = pair[1].active_dynamic_edges.iter().collect();
            compared += 1;
            if a == b {
                same += 1;
            }
        }
        // With ~15 dynamic edges and a 2% flip probability per edge, roughly
        // three quarters of consecutive rounds keep the exact same active
        // set; require a majority to guard the burstiness property.
        assert!(
            same * 2 > compared,
            "bursts expected: {same}/{compared} identical transitions"
        );
    }

    #[test]
    fn gilbert_elliott_empirical_availability_tracks_stationary_value() {
        let dual = topology::dual_clique(10).unwrap();
        let total = dual.dynamic_edges().len();
        let ge = GilbertElliottLinks::new(0.2, 0.2);
        let expected = ge.stationary_availability();
        let rounds = 400;
        let outcome = run_with_beacon(&dual, Box::new(ge), rounds, 4);
        let active: usize = outcome
            .history
            .records()
            .iter()
            .map(|r| r.active_dynamic_edges.len())
            .sum();
        let rate = active as f64 / (total * rounds) as f64;
        assert!((rate - expected).abs() < 0.08, "rate {rate} vs {expected}");
    }

    #[test]
    fn both_declare_oblivious_class() {
        assert_eq!(IidLinks::new(0.5).class(), AdversaryClass::Oblivious);
        assert_eq!(
            GilbertElliottLinks::new(0.1, 0.1).class(),
            AdversaryClass::Oblivious
        );
        assert_eq!(IidLinks::new(0.5).name(), "iid-links");
        assert_eq!(GilbertElliottLinks::new(0.1, 0.1).name(), "gilbert-elliott");
    }

    #[test]
    fn decisions_only_use_the_adversary_stream() {
        // Two runs with the same seed produce identical link behaviour even
        // though the view is inspected; sanity for obliviousness.
        let dual = topology::dual_clique(8).unwrap();
        let a = run_with_beacon(&dual, Box::new(IidLinks::new(0.4)), 30, 9);
        let b = run_with_beacon(&dual, Box::new(IidLinks::new(0.4)), 30, 9);
        assert_eq!(a.history, b.history);
        // Direct decide() calls also ignore the view contents.
        let (setup_dual, factory, assignment) = setup_ctx(&dual);
        let mut links = IidLinks::new(0.4);
        let setup = dradio_sim::AdversarySetup {
            dual: &setup_dual,
            factory: &factory,
            assignment: &assignment,
            horizon: 10,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        links.on_start(&setup, &mut rng);
        let view = AdversaryView::new(Round::ZERO, setup_dual.len(), None, None, None);
        let _ = links.decide(&view, &mut rng);
    }
}
