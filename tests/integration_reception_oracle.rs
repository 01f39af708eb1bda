//! Closed-form reception oracle. On a star whose k leaves each transmit
//! with probability p per round while the hub listens, the hub receives in
//! a round with probability k·p(1−p)^{k−1} and hears a collision with
//! probability 1 − (1−p)^k − k·p(1−p)^{k−1}. The equivalence suites check
//! one engine path against another, so a mistake every path shares passes
//! them; this suite checks reception against the formula instead, on the
//! executor over both row layouts, at fixed seeds so it cannot flake.

use std::sync::Arc;

use dradio::prelude::*;
use dradio::sim::sampling;
use rand::RngCore;

const ROUNDS: usize = 250;
const TRIALS: u64 = 16;

/// Transmits its message with a fixed probability each round; a node
/// without a message only listens.
struct FixedRate {
    rate: f64,
    msg: Option<Message>,
}

impl Process for FixedRate {
    fn on_round(&mut self, _round: Round, rng: &mut dyn RngCore) -> Action {
        match &self.msg {
            Some(msg) if sampling::bernoulli(rng, self.rate) => Action::Transmit(msg.clone()),
            _ => Action::Listen,
        }
    }
}

/// The hub (node 0) listens; every leaf transmits at `rate`.
fn star_field(rate: f64) -> ProcessFactory {
    Arc::new(move |ctx: &ProcessContext| {
        let msg = (ctx.id.index() != 0).then(|| Message::plain(ctx.id, MessageKind::new(1), 1));
        Box::new(FixedRate { rate, msg }) as Box<dyn Process>
    })
}

/// The central 99.9 % interval of Binomial(`draws`, `q`): its 0.05 % and
/// 99.95 % quantiles, from the exact pmf summed in log space.
fn binomial_interval(draws: usize, q: f64) -> (usize, usize) {
    let mut ln_choose = 0.0f64;
    let ln_pmf: Vec<f64> = (0..=draws)
        .map(|k| {
            if k > 0 {
                ln_choose += ((draws - k + 1) as f64).ln() - (k as f64).ln();
            }
            ln_choose + k as f64 * q.ln() + (draws - k) as f64 * (1.0 - q).ln()
        })
        .collect();
    let peak = ln_pmf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let pmf: Vec<f64> = ln_pmf.iter().map(|l| (l - peak).exp()).collect();
    let total: f64 = pmf.iter().sum();
    let mut cdf = 0.0;
    let mut lo = None;
    for (k, mass) in pmf.iter().enumerate() {
        cdf += mass / total;
        if lo.is_none() && cdf >= 0.0005 {
            lo = Some(k);
        }
        if cdf >= 0.9995 {
            return (lo.unwrap_or(k), k);
        }
    }
    (lo.unwrap_or(draws), draws)
}

fn assert_inside(label: &str, what: &str, count: usize, draws: usize, q: f64) {
    let (lo, hi) = binomial_interval(draws, q);
    assert!(
        (lo..=hi).contains(&count),
        "{label}: {count} {what} in {draws} rounds, outside the 99.9 % interval \
         [{lo}, {hi}] of Binomial({draws}, {q:.6})"
    );
}

/// Hub receptions and hub collisions summed over `outcomes`. A leaf's only
/// neighbour is the silent hub, so every delivery and collision is the
/// hub's.
fn hub_counts(outcomes: &[ExecutionOutcome]) -> (usize, usize) {
    for outcome in outcomes {
        assert_eq!(outcome.metrics.rounds, ROUNDS);
    }
    (
        outcomes.iter().map(|o| o.metrics.deliveries).sum(),
        outcomes.iter().map(|o| o.metrics.collisions).sum(),
    )
}

#[test]
fn a_listening_hub_receives_and_collides_at_the_closed_form_rates() {
    let link: LinkFactory = Arc::new(|| Box::new(StaticLinks::none()) as Box<dyn LinkProcess>);
    for k in [2usize, 8, 32] {
        let star = topology::star(k + 1).unwrap();
        let dense = Arc::new(star.with_graph_backend(GraphBackend::Dense));
        let csr = Arc::new(star.with_graph_backend(GraphBackend::Csr));
        for p in [0.05, 0.3] {
            let reception = k as f64 * p * (1.0 - p).powi(k as i32 - 1);
            let collision = 1.0 - (1.0 - p).powi(k as i32) - reception;
            let draws = ROUNDS * TRIALS as usize;
            let assignment = Assignment::global(k + 1, NodeId::new(0));
            let config = SimConfig::default().with_max_rounds(ROUNDS);
            let mut paths = Vec::new();
            for (layout, dual) in [("dense", &dense), ("csr", &csr)] {
                let mut executor = TrialExecutor::new(
                    Arc::clone(dual),
                    star_field(p),
                    assignment.clone(),
                    Arc::clone(&link),
                    StopCondition::max_rounds(),
                    config,
                )
                .unwrap();
                let outcomes: Vec<ExecutionOutcome> = (0..TRIALS)
                    .map(|seed| executor.execute(seed, RecordMode::None))
                    .collect();
                paths.push((layout, hub_counts(&outcomes)));
            }
            for (path, (received, collided)) in &paths {
                let label = format!("k {k}, p {p}, {path}");
                assert_inside(&label, "receptions", *received, draws, reception);
                assert_inside(&label, "collisions", *collided, draws, collision);
            }
            // Both layouts draw the same coins: one count, two paths.
            assert!(
                paths.windows(2).all(|w| w[0].1 == w[1].1),
                "k {k}, p {p}: {paths:?}"
            );
        }
    }
}

#[test]
fn the_interval_is_the_exact_binomial_quantile_pair() {
    // Binomial(10, 1/2): P(X <= 0) ≈ 0.00098 ≥ 0.0005 and P(X <= 9) ≈ 0.99902
    // < 0.9995, so the central 99.9 % interval is [0, 10].
    assert_eq!(binomial_interval(10, 0.5), (0, 10));
    // Binomial(100, 1/2): P(X <= 33) ≈ 0.00044 and P(X <= 34) ≈ 0.00089.
    assert_eq!(binomial_interval(100, 0.5), (34, 66));
    // A rare event: the lower end is 0.
    let (lo, hi) = binomial_interval(4000, 1e-4);
    assert_eq!(lo, 0);
    assert!((2..=5).contains(&hi), "{hi}");
}
