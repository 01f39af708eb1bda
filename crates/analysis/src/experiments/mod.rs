//! Experiment definitions E1–E8.
//!
//! Each experiment reproduces one row of Figure 1 of the paper (or one
//! empirically checkable lemma) as a measured table. The `repro` binary in
//! `dradio-bench` prints every experiment; the Criterion benches wrap the
//! same definitions; `EXPERIMENTS.md` records the measured results next to
//! the paper's claims.

mod e1_static;
mod e2_global_oblivious;
mod e3_bracelet;
mod e4_geo_local;
mod e5_online_adaptive;
mod e6_offline_adaptive;
mod e7_hitting;
mod e8_decay_ablation;

pub use e1_static::E1StaticBaselines;
pub use e2_global_oblivious::E2GlobalOblivious;
pub use e3_bracelet::E3BraceletLowerBound;
pub use e4_geo_local::E4GeoLocal;
pub use e5_online_adaptive::E5OnlineAdaptive;
pub use e6_offline_adaptive::E6OfflineAdaptive;
pub use e7_hitting::E7HittingGame;
pub use e8_decay_ablation::E8DecayAblation;

use dradio_core::algorithms::GlobalAlgorithm;
use dradio_scenario::{AdversarySpec, ProblemSpec, ScenarioSpec, TopologySpec};

use crate::curves::{contention_table, DEFAULT_BUCKETS};
use crate::fit::best_fit;
use crate::sweep::{
    measurement_for, run_campaign, CampaignError, CampaignSpec, ContentionCurve, RoundsRule,
    StopRule, SweepGroup, TrialPolicy,
};
use crate::table::Table;

/// How much work an experiment run should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes and a single trial — used by unit tests.
    Smoke,
    /// Moderate sizes, a few trials — the `repro` binary default.
    Quick,
    /// Larger sizes and more trials — closer to publication quality.
    Full,
}

/// Configuration shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Number of independent trials per data point.
    pub trials: usize,
    /// Sweep scale.
    pub scale: Scale,
    /// Base random seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Smoke-test configuration (single trial, tiny sizes).
    pub fn smoke() -> Self {
        ExperimentConfig {
            trials: 1,
            scale: Scale::Smoke,
            seed: 0xD15EA5E,
        }
    }

    /// Quick configuration (default for the `repro` binary).
    pub fn quick() -> Self {
        ExperimentConfig {
            trials: 3,
            scale: Scale::Quick,
            seed: 0xD15EA5E,
        }
    }

    /// Full configuration.
    pub fn full() -> Self {
        ExperimentConfig {
            trials: 8,
            scale: Scale::Full,
            seed: 0xD15EA5E,
        }
    }

    /// Picks one of three size lists according to the scale.
    pub fn pick<T: Clone>(&self, smoke: &[T], quick: &[T], full: &[T]) -> Vec<T> {
        match self.scale {
            Scale::Smoke => smoke.to_vec(),
            Scale::Quick => quick.to_vec(),
            Scale::Full => full.to_vec(),
        }
    }

    /// The completion-targeted adaptive trial policy the lower-bound
    /// experiments (E3, E5) run with: start from the configured trial count
    /// and keep doubling (up to `4 · trials`, at least 8) until the ~95%
    /// Wilson interval on the completion rate is within ±25 percentage
    /// points. Their claims are about *whether* broadcast finishes under
    /// attack, so precision on the completion probability — not on the mean
    /// cost — is what earns extra trials.
    pub fn completion_policy(&self) -> TrialPolicy {
        TrialPolicy::Adaptive {
            min: self.trials,
            max: (self.trials * 4).max(8),
            relative_width: 0.25,
            stop: StopRule::CompletionCi,
        }
    }
}

/// One experiment of the reproduction.
pub trait Experiment: Sync + Send {
    /// Short identifier ("E1", "E2", …).
    fn id(&self) -> &'static str;

    /// Human-readable title.
    fn title(&self) -> &'static str;

    /// The claim from the paper this experiment checks.
    fn paper_claim(&self) -> &'static str;

    /// Runs the experiment and returns its tables.
    ///
    /// Scenario-sweep experiments define themselves as
    /// [`CampaignSpec`]s and execute through the
    /// campaign engine, so misconfiguration (zero trials, incompatible
    /// components) propagates as an error instead of panicking mid-sweep.
    ///
    /// # Errors
    ///
    /// [`CampaignError`] when a campaign fails to validate or a cell fails to
    /// build or run.
    fn run(&self, cfg: &ExperimentConfig) -> Result<Vec<Table>, CampaignError>;
}

/// The registry of all experiments in presentation order.
pub fn all() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(E1StaticBaselines),
        Box::new(E2GlobalOblivious),
        Box::new(E3BraceletLowerBound),
        Box::new(E4GeoLocal),
        Box::new(E5OnlineAdaptive),
        Box::new(E6OfflineAdaptive),
        Box::new(E7HittingGame),
        Box::new(E8DecayAblation),
    ]
}

/// Formats a float with one decimal for table cells.
pub(crate) fn fmt1(x: f64) -> String {
    format!("{x:.1}")
}

/// One contention-over-time comparison: a dual clique, an adversary, and
/// the execution budget, shared by the E2c and E8c tables.
pub(crate) struct ContentionSetup {
    /// Campaign name (also used in the missing-curve error).
    pub campaign_name: &'static str,
    /// Scenario seed.
    pub seed: u64,
    /// Dual-clique size.
    pub n: usize,
    /// The link process under which contention is measured.
    pub adversary: AdversarySpec,
    /// Per-trial round budget.
    pub max_rounds: usize,
    /// Trials per cell.
    pub trials: usize,
}

/// Runs a curve-streaming campaign comparing both decay variants on one
/// dual clique and renders their contention-over-time curves side by side —
/// the shape shared by the contention tables of E2 (i.i.d. adversary) and
/// E8 (decay-aware adversary). The cells record under `CollisionsOnly`
/// (the curve raises the history-free default to it; no record mode ever
/// changes what an adversary sees).
pub(crate) fn dual_clique_contention_table(
    title: String,
    setup: ContentionSetup,
) -> Result<Table, CampaignError> {
    let ContentionSetup {
        campaign_name,
        seed,
        n,
        adversary,
        max_rounds,
        trials,
    } = setup;
    let algorithms = [GlobalAlgorithm::Bgi, GlobalAlgorithm::Permuted];
    let campaign = CampaignSpec::named(campaign_name)
        .seed(seed)
        .trials(TrialPolicy::Fixed(trials))
        .group(
            SweepGroup::product(
                vec![TopologySpec::DualClique { n }],
                algorithms.iter().map(|&a| a.into()).collect(),
                vec![adversary.clone()],
                vec![ProblemSpec::GlobalFrom(0)],
            )
            .rounds(RoundsRule::Fixed(max_rounds))
            .curve(true),
        );
    let store = run_campaign(&campaign)?;

    let mut curves: Vec<(String, &ContentionCurve)> = Vec::new();
    for algorithm in algorithms {
        let scenario = ScenarioSpec {
            topology: TopologySpec::DualClique { n },
            algorithm: algorithm.into(),
            adversary: adversary.clone(),
            problem: ProblemSpec::GlobalFrom(0),
            seed,
            max_rounds: Some(max_rounds),
            collision_detection: false,
        };
        let m = measurement_for(&store, &scenario)?;
        let curve = m.contention.as_ref().ok_or_else(|| {
            CampaignError::spec(format!(
                "{campaign_name} asked for a curve but the measurement for {scenario} has none"
            ))
        })?;
        curves.push((algorithm.name().to_string(), curve));
    }
    Ok(contention_table(title, &curves, DEFAULT_BUCKETS))
}

/// Produces a "best fit" annotation for a measured series.
pub(crate) fn fit_note(points: &[(f64, f64)]) -> String {
    match best_fit(points) {
        Some(fit) => format!(
            "best fit ~ {} (scale {:.2}, rel. rmse {:.2})",
            fit.model, fit.scale, fit.relative_rmse
        ),
        None => String::from("no fit (empty series)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_eight_experiments_with_unique_ids() {
        let experiments = all();
        assert_eq!(experiments.len(), 8);
        let mut ids: Vec<&str> = experiments.iter().map(|e| e.id()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
        for e in &experiments {
            assert!(!e.title().is_empty());
            assert!(!e.paper_claim().is_empty());
        }
    }

    #[test]
    fn config_pick_follows_scale() {
        let smoke = ExperimentConfig::smoke();
        let quick = ExperimentConfig::quick();
        let full = ExperimentConfig::full();
        assert_eq!(smoke.pick(&[1], &[2], &[3]), vec![1]);
        assert_eq!(quick.pick(&[1], &[2], &[3]), vec![2]);
        assert_eq!(full.pick(&[1], &[2], &[3]), vec![3]);
        assert!(full.trials > quick.trials);
    }

    #[test]
    fn fit_note_mentions_a_model() {
        let points: Vec<(f64, f64)> = (5..10)
            .map(|i| (f64::from(i), f64::from(i) * 2.0))
            .collect();
        let note = fit_note(&points);
        assert!(note.contains("best fit"));
        assert_eq!(fit_note(&[]), "no fit (empty series)");
    }

    /// Every experiment must run end to end at smoke scale and produce at
    /// least one non-empty table. This is the integration test that keeps the
    /// whole harness wired together.
    #[test]
    fn every_experiment_runs_at_smoke_scale() {
        let cfg = ExperimentConfig::smoke();
        for experiment in all() {
            let tables = experiment
                .run(&cfg)
                .unwrap_or_else(|e| panic!("{} failed: {e}", experiment.id()));
            assert!(!tables.is_empty(), "{} produced no tables", experiment.id());
            for table in &tables {
                assert!(
                    !table.rows().is_empty(),
                    "{} produced an empty table",
                    experiment.id()
                );
            }
        }
    }
}
