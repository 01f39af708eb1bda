//! Measuring the round complexity of scenario sweeps through the campaign
//! engine.
//!
//! The construction machinery lives in [`dradio_scenario`] (a
//! [`Scenario`](dradio_scenario::Scenario) pins down one combination,
//! [`ScenarioRunner`] fans trials across threads) and the orchestration
//! machinery in [`dradio_campaign`] (a [`CampaignSpec`] describes a whole
//! sweep; [`CampaignRunner`] executes the cells and can persist them to a
//! resumable store). This module re-exports both layers and adds the
//! conveniences the experiment definitions share.
//!
//! Experiments run their campaigns **in memory** — persistence is the
//! `repro campaign` subcommands' concern — and look measurements up by
//! scenario when rendering tables, so presentation order is independent of
//! expansion order.
//!
//! The old panicking `measure_rounds` entry point is gone: zero-trial (and
//! every other) misconfiguration now surfaces as a [`CampaignError`] at
//! campaign validation time, before any cell runs.

pub use dradio_campaign::{
    CampaignError, CampaignRunner, CampaignSpec, CellRecord, CellSpec, ResultStore, RoundsRule,
    RunReport, StopRule, SweepGroup, TrialPolicy,
};
pub use dradio_scenario::{Completion, ContentionCurve, Measurement, ScenarioRunner, TrialOutcome};

use dradio_scenario::ScenarioSpec;

/// Runs a campaign into a fresh in-memory store.
///
/// # Errors
///
/// Everything [`CampaignRunner::run`] reports: invalid specs (including
/// zero-trial policies), cells that fail to build, or failing executions.
pub fn run_campaign(spec: &CampaignSpec) -> Result<ResultStore, CampaignError> {
    CampaignRunner::new(spec).run_in_memory()
}

/// Fetches the stored measurement for one scenario of a campaign.
///
/// # Errors
///
/// [`CampaignError::Spec`] if the store holds no measurement for the
/// scenario — in the experiments this means a table's rendering loop drifted
/// from its campaign definition, which should fail loudly rather than print
/// a partial table.
pub fn measurement_for<'s>(
    store: &'s ResultStore,
    scenario: &ScenarioSpec,
) -> Result<&'s Measurement, CampaignError> {
    store
        .for_scenario(scenario)
        .map(|record| &record.measurement)
        .ok_or_else(|| {
            CampaignError::spec(format!(
                "the campaign store has no measurement for {scenario}"
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dradio_core::algorithms::GlobalAlgorithm;
    use dradio_scenario::{AdversarySpec, ProblemSpec, Scenario, TopologySpec};

    fn clique_campaign(n: usize, trials: usize) -> CampaignSpec {
        CampaignSpec::named("sweep-test")
            .seed(1)
            .trials(TrialPolicy::Fixed(trials))
            .group(
                SweepGroup::cell(
                    TopologySpec::Clique { n },
                    GlobalAlgorithm::Bgi,
                    AdversarySpec::StaticNone,
                    ProblemSpec::GlobalFrom(0),
                )
                .rounds(RoundsRule::Fixed(2_000)),
            )
    }

    #[test]
    fn measures_a_simple_global_broadcast() {
        let store = run_campaign(&clique_campaign(16, 5)).unwrap();
        let m = &store.records()[0].measurement;
        assert_eq!(m.rounds.count, 5);
        assert_eq!(m.completion_rate(), 1.0);
        assert!(m.rounds.mean >= 1.0);
        assert!(m.rounds.mean < 2_000.0);
    }

    #[test]
    fn campaign_measurements_equal_direct_runner_measurements() {
        let campaign = clique_campaign(16, 5);
        let store = run_campaign(&campaign).unwrap();
        let scenario = Scenario::on(TopologySpec::Clique { n: 16 })
            .algorithm(GlobalAlgorithm::Bgi)
            .adversary(AdversarySpec::StaticNone)
            .problem(ProblemSpec::GlobalFrom(0))
            .seed(1)
            .max_rounds(2_000)
            .build()
            .unwrap();
        let direct = scenario.run_trials(5).unwrap();
        assert_eq!(
            measurement_for(&store, scenario.spec()).unwrap(),
            &direct,
            "the campaign engine must reproduce ScenarioRunner measurements exactly"
        );
    }

    #[test]
    fn censored_trials_report_the_budget() {
        // Round robin on a line with an absurdly small budget cannot finish.
        let campaign = CampaignSpec::named("censored")
            .seed(2)
            .trials(TrialPolicy::Fixed(3))
            .group(
                SweepGroup::cell(
                    TopologySpec::Line { n: 32 },
                    GlobalAlgorithm::RoundRobin,
                    AdversarySpec::StaticNone,
                    ProblemSpec::GlobalFrom(0),
                )
                .rounds(RoundsRule::Fixed(10)),
            );
        let store = run_campaign(&campaign).unwrap();
        let m = &store.records()[0].measurement;
        assert_eq!(m.completion_rate(), 0.0);
        assert_eq!(m.rounds.mean, 10.0);
        assert_eq!(m.rounds.min, 10.0);
    }

    #[test]
    fn zero_trials_is_an_error_not_a_panic() {
        let err = run_campaign(&clique_campaign(8, 0)).unwrap_err();
        assert!(matches!(err, CampaignError::Spec { .. }), "{err}");
        assert!(err.to_string().contains("zero trials"));
    }

    #[test]
    fn missing_measurements_are_loud() {
        let store = run_campaign(&clique_campaign(16, 2)).unwrap();
        let other = Scenario::on(TopologySpec::Clique { n: 64 })
            .algorithm(GlobalAlgorithm::Bgi)
            .adversary(AdversarySpec::StaticNone)
            .problem(ProblemSpec::GlobalFrom(0))
            .build()
            .unwrap();
        assert!(measurement_for(&store, other.spec()).is_err());
    }
}
