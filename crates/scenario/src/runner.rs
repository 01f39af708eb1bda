//! Running many independent trials of a scenario, in parallel, and
//! aggregating them into a typed, multi-statistic [`Measurement`].
//!
//! Trial `t` derives its master seed from the scenario seed with the same
//! splitmix64 finalizer the engine uses for per-node streams
//! ([`dradio_sim::derive_stream_seed`]), so:
//!
//! * trials are statistically independent (adjacent trial indices give
//!   uncorrelated streams), and
//! * the result depends only on `(scenario spec, trial count)` — never on
//!   thread scheduling. The parallel and sequential modes produce identical
//!   [`Measurement`]s.
//!
//! # The measurement pipeline
//!
//! One trial boils down to a [`TrialMetrics`] (the engine's typed per-trial
//! measurement: cost, completion flag, aggregate collisions, optional
//! per-round collision curve), wrapped with its index and seed as a
//! [`TrialOutcome`]. A batch aggregates through a [`TrialAccumulator`] into
//! a [`Measurement`] holding named statistics: the rounds [`Summary`], a
//! Wilson-interval [`Completion`] rate, the mean collision count, and — when
//! requested via [`ScenarioRunner::curve`] — a mean contention-over-time
//! [`ContentionCurve`] streamed one trial at a time (per-round Welford
//! moments; no per-trial curve is ever retained by the runner).
//!
//! # The trial-seed derivation contract
//!
//! ```text
//! trial_seed(t) = derive_stream_seed(scenario.seed, TRIAL_STREAM_BASE ^ t)
//! ```
//!
//! where [`derive_stream_seed`] is the engine's splitmix64 finalizer and
//! [`TRIAL_STREAM_BASE`] is the fixed constant `0x5CE7_AB10_0000_0000`. This
//! is a **stable, persistence-facing contract**, not an implementation
//! detail: campaign result stores (`dradio-campaign`) persist only the cell's
//! [`ScenarioSpec`](crate::ScenarioSpec) and trial count, and a resumed
//! campaign must regenerate exactly the seeds a fresh run would use for the
//! still-missing cells — otherwise "partial run + resume" and "one
//! uninterrupted run" would diverge. Changing the constant or the finalizer
//! invalidates every stored measurement; tests in this module and in
//! `dradio-campaign` pin the derivation.

use dradio_sim::{
    derive_stream_seed, BatchExecutor, RecordMode, TrialExecutor, TrialMetrics, MAX_LANES,
};
use rayon::prelude::*;

use serde::{Deserialize, Serialize, Value};

use crate::error::{Result, ScenarioError};
use crate::scenario::Scenario;
use crate::stats::{Completion, ContentionCurve, Moments, Summary};

/// The measured outcome of one trial: the typed [`TrialMetrics`] plus its
/// position in the batch.
///
/// Outcomes handed out by the runner carry scalar metrics only
/// ([`TrialMetrics::collisions_per_round`] is `None`): per-round collision
/// curves are streamed into the batch's [`ContentionCurve`] as each trial
/// completes instead of being retained per trial, so outcomes stay
/// constant-size regardless of record mode — and compare equal across
/// modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialOutcome {
    /// Trial index within the batch.
    pub trial: usize,
    /// The derived master seed the trial ran with.
    pub seed: u64,
    /// The trial's typed measurement.
    pub metrics: TrialMetrics,
}

impl TrialOutcome {
    /// Rounds to completion, or the round budget if censored — the measured
    /// cost.
    pub fn cost(&self) -> usize {
        self.metrics.rounds
    }

    /// Whether the stop condition was met within the budget.
    pub fn completed(&self) -> bool {
        self.metrics.completed
    }

    /// Collisions observed during the trial.
    pub fn collisions(&self) -> usize {
        self.metrics.collisions
    }
}

/// Summary of a batch of independent trials: named statistics over the
/// per-trial [`TrialMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Summary of per-trial costs (completion round, or the budget for
    /// censored trials).
    pub rounds: Summary,
    /// Completion statistics (exact counts; Wilson-interval methods).
    pub completion: Completion,
    /// Mean number of collisions per trial (a contention diagnostic).
    pub mean_collisions: f64,
    /// Mean contention over time, when the batch was aggregated with curve
    /// streaming ([`ScenarioRunner::curve`]); `None` otherwise. Optional in
    /// the serialized form too, so measurements without a curve keep the
    /// exact pre-curve store bytes.
    pub contention: Option<ContentionCurve>,
}

impl Serialize for Measurement {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("rounds".into(), self.rounds.to_value()),
            ("completion_rate".into(), self.completion.rate().to_value()),
            ("mean_collisions".into(), self.mean_collisions.to_value()),
        ];
        if let Some(contention) = &self.contention {
            fields.push(("contention".into(), contention.to_value()));
        }
        Value::Map(fields)
    }
}

impl Deserialize for Measurement {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::new(format!("Measurement is missing {name:?}")))
        };
        let rounds = Summary::from_value(field("rounds")?)?;
        let completion_rate = f64::from_value(field("completion_rate")?)?;
        // The stored rate is exactly completed / trials with trials =
        // rounds.count, so the integer counts are recoverable; round() guards
        // the last-ULP of the division.
        let completion = Completion {
            completed: (completion_rate * rounds.count as f64).round() as usize,
            trials: rounds.count,
        };
        Ok(Measurement {
            rounds,
            completion,
            mean_collisions: f64::from_value(field("mean_collisions")?)?,
            contention: match value.get("contention") {
                Some(v) => Some(ContentionCurve::from_value(v)?),
                None => None,
            },
        })
    }
}

impl Measurement {
    /// The fraction of trials that completed within the budget (shorthand
    /// for `measurement.completion.rate()`, matching the serialized field).
    pub fn completion_rate(&self) -> f64 {
        self.completion.rate()
    }

    /// Aggregates scalar trial outcomes (no contention curve).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::NoTrials`] for an empty batch: an empty measurement
    /// has no meaningful mean, so the zero-trial case is an explicit error
    /// rather than a silently guarded division.
    pub fn from_trials(trials: &[TrialOutcome]) -> Result<Self> {
        let mut acc = TrialAccumulator::new();
        for trial in trials {
            acc.push(&trial.metrics);
        }
        acc.finish()
    }
}

/// Streaming aggregation of [`TrialMetrics`] into a [`Measurement`].
///
/// Pushing a trial is O(1) in retained state beyond the cost buffer the
/// order statistics need: completion and collision tallies are integers, the
/// running cost [`Moments`] back the mean-cost adaptive stop rule, and —
/// with [`TrialAccumulator::with_curve`] — each trial's per-round collision
/// counts fold into the [`ContentionCurve`] and are dropped, so the
/// accumulator never holds more than one trial's curve at a time.
///
/// Trials must be pushed in trial-index order (every runner path does);
/// the curve and moments are then identical no matter which worker executed
/// which trial.
#[derive(Debug, Clone, Default)]
pub struct TrialAccumulator {
    costs: Vec<f64>,
    cost_moments: Moments,
    completed: usize,
    collisions: usize,
    contention: Option<ContentionCurve>,
}

impl TrialAccumulator {
    /// A scalar accumulator (no contention curve).
    pub fn new() -> Self {
        TrialAccumulator::default()
    }

    /// An accumulator that also streams per-round collision curves. Trials
    /// pushed into it should carry [`TrialMetrics::collisions_per_round`]
    /// (i.e. run under a collision-recording mode); a trial without one
    /// contributes an all-zero curve.
    pub fn with_curve() -> Self {
        TrialAccumulator {
            contention: Some(ContentionCurve::new()),
            ..TrialAccumulator::default()
        }
    }

    /// Folds one trial in (index order).
    pub fn push(&mut self, metrics: &TrialMetrics) {
        self.costs.push(metrics.rounds as f64);
        self.cost_moments.push(metrics.rounds as f64);
        self.completed += usize::from(metrics.completed);
        self.collisions += metrics.collisions;
        if let Some(contention) = &mut self.contention {
            contention.push_trial(metrics.collisions_per_round.as_deref().unwrap_or(&[]));
        }
    }

    /// Number of trials folded in.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Returns `true` if no trial was folded yet.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// The running cost moments (count, mean, sample variance) — what the
    /// mean-cost adaptive stop rule reads after each doubling.
    pub fn cost_moments(&self) -> &Moments {
        &self.cost_moments
    }

    /// The completion counts so far — what the completion-targeted adaptive
    /// stop rule reads (via [`Completion::wilson_half_width`]).
    pub fn completion(&self) -> Completion {
        Completion {
            completed: self.completed,
            trials: self.costs.len(),
        }
    }

    /// Finishes the batch into a [`Measurement`]. The rounds [`Summary`] is
    /// computed from the full cost buffer (numerically identical to
    /// [`Measurement::from_trials`] over the same outcomes).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::NoTrials`] if the batch is empty.
    pub fn finish(self) -> Result<Measurement> {
        if self.costs.is_empty() {
            return Err(ScenarioError::NoTrials);
        }
        let trials = self.costs.len();
        Ok(Measurement {
            rounds: Summary::from_iter(self.costs),
            completion: Completion {
                completed: self.completed,
                trials,
            },
            mean_collisions: self.collisions as f64 / trials as f64,
            contention: self.contention,
        })
    }
}

/// Stream index offsetting trial seeds from the engine's internal per-node
/// streams (which start at 0 for the *derived* seed, not the scenario seed —
/// but a distinct constant keeps the two families visibly separate in traces
/// and guards against accidental reuse of trial 0 ≡ scenario seed).
///
/// Part of the persistence contract documented at the [module level](self):
/// campaign result stores assume `trial_seed(t)` is reproducible from the
/// serialized scenario spec alone, so this constant must never change.
pub const TRIAL_STREAM_BASE: u64 = 0x5CE7_AB10_0000_0000;

/// Runs independent trials of a [`Scenario`] and summarizes the costs.
///
/// Parallel by default: trials fan out across the rayon thread pool. Because
/// each trial's seed is derived from its index, the aggregation is
/// deterministic — [`ScenarioRunner::sequential`] produces the identical
/// [`Measurement`] and exists for verification and single-threaded
/// environments.
///
/// Trials run with [`RecordMode::None`] by default: a [`TrialOutcome`] keeps
/// only the cost, completion flag, and collision count, so the engine skips
/// history recording entirely. The measured quantities are identical under
/// every mode (the mode decides only what an outcome carries; adaptive
/// adversaries read the same earlier rounds under every mode), which the
/// crate tests pin; use [`ScenarioRunner::record_mode`] to opt back into retained
/// histories when debugging, or [`ScenarioRunner::curve`] to stream a
/// contention-over-time curve into the measurement.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioRunner<'a> {
    scenario: &'a Scenario,
    parallel: bool,
    record_mode: RecordMode,
    curve: bool,
}

impl<'a> ScenarioRunner<'a> {
    /// Creates a parallel, history-free runner over `scenario`.
    pub fn new(scenario: &'a Scenario) -> Self {
        ScenarioRunner {
            scenario,
            parallel: true,
            record_mode: RecordMode::None,
            curve: false,
        }
    }

    /// Switches the runner to sequential (in-thread) execution.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Overrides the record mode trials run with (default
    /// [`RecordMode::None`]; measurements are identical under every mode).
    pub fn record_mode(mut self, record_mode: RecordMode) -> Self {
        self.record_mode = record_mode;
        self
    }

    /// Requests a mean contention-over-time curve in the measurement.
    ///
    /// A runner with a curve auto-promotes [`RecordMode::None`] to
    /// [`RecordMode::CollisionsOnly`] (per-round counts are needed; full
    /// history is not) and aggregates trials **sequentially**, streaming each
    /// trial's collision curve into the shared [`ContentionCurve`] the moment
    /// the trial finishes — the runner never holds more than one per-trial
    /// curve. Every scalar statistic is identical with and without the curve
    /// (same trial seeds, same engine behaviour), which the crate tests pin.
    pub fn curve(mut self, enabled: bool) -> Self {
        self.curve = enabled;
        self
    }

    /// Whether this runner streams a contention curve.
    pub fn has_curve(&self) -> bool {
        self.curve
    }

    /// Whether the trial fan-out runs bit-sliced: trials in lane groups of
    /// up to [`MAX_LANES`] through a [`BatchExecutor`], each group advancing
    /// all its live trials one round per word pass. The runner decides on
    /// its own, by [`Scenario::is_batchable`] under the effective record
    /// mode; everything else runs on the scalar [`TrialExecutor`].
    ///
    /// The choice is a pure execution strategy, never a semantics change:
    /// lane `k` of a group produces bit-for-bit the outcome the scalar
    /// executor produces for the same trial index, so every statistic —
    /// measurements, curves, persisted stores — is identical either way.
    pub fn uses_batch(&self) -> bool {
        self.scenario.is_batchable(self.effective_record_mode())
    }

    /// The record mode trials actually execute with: the configured mode,
    /// promoted to [`RecordMode::CollisionsOnly`] when a curve is requested
    /// and the mode retains no collisions.
    pub fn effective_record_mode(&self) -> RecordMode {
        if self.curve && !self.record_mode.records_collisions() {
            RecordMode::CollisionsOnly
        } else {
            self.record_mode
        }
    }

    /// The master seed trial `t` runs with.
    pub fn trial_seed(&self, trial: usize) -> u64 {
        derive_stream_seed(self.scenario.seed(), TRIAL_STREAM_BASE ^ trial as u64)
    }

    /// A reusable [`TrialExecutor`] over the scenario (see
    /// [`Scenario::executor`]). The fan-out paths create one per worker and
    /// run every trial of that worker through it; results are identical to
    /// one fresh simulator per trial, just without the per-trial setup.
    pub fn executor(&self) -> TrialExecutor {
        self.scenario.executor()
    }

    /// The [`BatchExecutor`] the fan-out will use: [`ScenarioRunner::uses_batch`]
    /// must hold and the scenario's actual link process must pass the
    /// executor's own obliviousness check. `None` means the scalar path runs
    /// instead.
    fn batch_executor_if_usable(&self) -> Option<BatchExecutor> {
        if !self.uses_batch() {
            return None;
        }
        self.scenario.batch_executor().ok()
    }

    /// Runs one lane group — trials `start..start + seeds.len()` — on a
    /// reused batch executor, in trial order.
    fn run_group_on(
        &self,
        executor: &mut BatchExecutor,
        start: usize,
        seeds: &[u64],
    ) -> Vec<TrialOutcome> {
        let outcomes = executor
            .execute_group(seeds, self.effective_record_mode())
            // lint: allow(D4) -- an identical construction was probed when the batch path was selected
            .expect("group batchability was verified when the batch path was selected");
        outcomes
            .into_iter()
            .zip(seeds)
            .enumerate()
            .map(|(k, (outcome, &seed))| TrialOutcome {
                trial: start + k,
                seed,
                metrics: outcome.into_trial_metrics().without_curve(),
            })
            .collect()
    }

    /// The lane-group decomposition of a batch of `trials`: `(start, seeds)`
    /// pairs covering `0..trials` in order, each at most [`MAX_LANES`] wide.
    fn lane_groups(&self, trials: usize) -> Vec<(usize, Vec<u64>)> {
        (0..trials)
            .step_by(MAX_LANES)
            .map(|start| {
                let end = usize::min(start + MAX_LANES, trials);
                (start, (start..end).map(|t| self.trial_seed(t)).collect())
            })
            .collect()
    }

    /// The bit-sliced analogue of the scalar fan-out in
    /// [`collect_trials`](ScenarioRunner::collect_trials): lane groups fan
    /// out across the rayon pool (one reused batch executor per worker), and
    /// the per-group outcome vectors concatenate back into trial order.
    fn collect_trials_batched(&self, mut first: BatchExecutor, trials: usize) -> Vec<TrialOutcome> {
        let groups = self.lane_groups(trials);
        let per_group: Vec<Vec<TrialOutcome>> = if self.parallel {
            (0..groups.len())
                .into_par_iter()
                .map_init(
                    || {
                        self.scenario
                            .batch_executor()
                            // lint: allow(D4) -- an identical construction was probed when the batch path was selected
                            .expect("an identical batch executor was constructed moments ago")
                    },
                    |executor, g| {
                        let (start, seeds) = &groups[g];
                        self.run_group_on(executor, *start, seeds)
                    },
                )
                .collect()
        } else {
            groups
                .into_iter()
                .map(|(start, seeds)| self.run_group_on(&mut first, start, &seeds))
                .collect()
        };
        per_group.concat()
    }

    /// Runs one trial by index (a fresh single-shot execution; for many
    /// trials prefer [`ScenarioRunner::run_trial_on`] with a reused
    /// executor — the outcomes are identical).
    pub fn run_trial(&self, trial: usize) -> TrialOutcome {
        let seed = self.trial_seed(trial);
        let outcome = self.scenario.run_with(seed, self.effective_record_mode());
        TrialOutcome {
            trial,
            seed,
            metrics: outcome.into_trial_metrics().without_curve(),
        }
    }

    /// Runs one trial by index on a reused executor.
    pub fn run_trial_on(&self, executor: &mut TrialExecutor, trial: usize) -> TrialOutcome {
        let seed = self.trial_seed(trial);
        let outcome = executor.execute(seed, self.effective_record_mode());
        TrialOutcome {
            trial,
            seed,
            metrics: outcome.into_trial_metrics().without_curve(),
        }
    }

    /// Runs one trial by index on a reused executor and folds its full
    /// [`TrialMetrics`] — including the collision curve, when recorded —
    /// into `acc`, returning the scalar outcome. The streaming primitive
    /// behind curve-carrying measurements; the campaign engine drives it
    /// directly for adaptive cells.
    pub fn run_trial_into(
        &self,
        executor: &mut TrialExecutor,
        trial: usize,
        acc: &mut TrialAccumulator,
    ) -> TrialOutcome {
        let seed = self.trial_seed(trial);
        let metrics = executor
            .execute(seed, self.effective_record_mode())
            .into_trial_metrics();
        acc.push(&metrics);
        TrialOutcome {
            trial,
            seed,
            metrics: metrics.without_curve(),
        }
    }

    /// The accumulator matching this runner's configuration (curve-streaming
    /// when [`ScenarioRunner::curve`] is set).
    pub fn accumulator(&self) -> TrialAccumulator {
        if self.curve {
            TrialAccumulator::with_curve()
        } else {
            TrialAccumulator::new()
        }
    }

    /// Runs `trials` independent trials and returns their outcomes in trial
    /// order.
    ///
    /// Each worker (one in sequential mode) builds a single [`TrialExecutor`]
    /// and reuses it for all its trials, so the per-trial cost is the
    /// execution itself — no network copy, no scratch reallocation, no
    /// process-vector growth. Outcomes depend only on the trial index, never
    /// on which worker (or executor) ran a trial.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::NoTrials`] if `trials` is zero.
    pub fn collect_trials(&self, trials: usize) -> Result<Vec<TrialOutcome>> {
        if trials == 0 {
            return Err(ScenarioError::NoTrials);
        }
        if let Some(executor) = self.batch_executor_if_usable() {
            return Ok(self.collect_trials_batched(executor, trials));
        }
        let outcomes: Vec<TrialOutcome> = if self.parallel {
            (0..trials)
                .into_par_iter()
                .map_init(
                    || self.executor(),
                    |executor, t| self.run_trial_on(executor, t),
                )
                .collect()
        } else {
            let mut executor = self.executor();
            (0..trials)
                .map(|t| self.run_trial_on(&mut executor, t))
                .collect()
        };
        Ok(outcomes)
    }

    /// Runs `trials` independent trials and summarizes them.
    ///
    /// With [`ScenarioRunner::curve`] the trials run sequentially through one
    /// executor and their collision curves stream into the measurement's
    /// [`ContentionCurve`]; otherwise the scalar fan-out path is used. Both
    /// produce identical scalar statistics.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::NoTrials`] if `trials` is zero.
    pub fn run_trials(&self, trials: usize) -> Result<Measurement> {
        if self.curve {
            if trials == 0 {
                return Err(ScenarioError::NoTrials);
            }
            let mut acc = TrialAccumulator::with_curve();
            if let Some(mut executor) = self.batch_executor_if_usable() {
                // Curve streaming is inherently sequential, but each lane
                // group still advances up to MAX_LANES trials per word pass;
                // outcomes come back in lane (= trial) order, so the curve
                // folds exactly as the scalar loop would fold it.
                for (_start, seeds) in self.lane_groups(trials) {
                    let outcomes = executor
                        .execute_group(&seeds, self.effective_record_mode())
                        // lint: allow(D4) -- an identical construction was probed when the batch path was selected
                        .expect("group batchability was verified when the batch path was selected");
                    for outcome in outcomes {
                        acc.push(&outcome.into_trial_metrics());
                    }
                }
            } else {
                let mut executor = self.executor();
                for t in 0..trials {
                    self.run_trial_into(&mut executor, t, &mut acc);
                }
            }
            acc.finish()
        } else {
            Measurement::from_trials(&self.collect_trials(trials)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversarySpec;
    use crate::problem::ProblemSpec;
    use crate::topology::TopologySpec;
    use dradio_core::algorithms::GlobalAlgorithm;
    use dradio_core::kinds;
    use dradio_sim::{
        sampling, Action, BatchProfile, Message, Process, ProcessContext, ProcessFactory, Role,
        Round,
    };

    fn scenario(seed: u64) -> Scenario {
        Scenario::on(TopologySpec::DualClique { n: 16 })
            .algorithm(GlobalAlgorithm::Permuted)
            .adversary(AdversarySpec::Iid { p: 0.5 })
            .problem(ProblemSpec::GlobalFrom(0))
            .seed(seed)
            .max_rounds(20_000)
            .build()
            .expect("valid scenario")
    }

    fn outcome(trial: usize, cost: usize, completed: bool, collisions: usize) -> TrialOutcome {
        TrialOutcome {
            trial,
            seed: trial as u64 + 1,
            metrics: dradio_sim::TrialMetrics {
                rounds: cost,
                completed,
                collisions,
                collisions_per_round: None,
            },
        }
    }

    #[test]
    fn zero_trials_is_an_explicit_error() {
        let s = scenario(1);
        assert!(matches!(s.run_trials(0), Err(ScenarioError::NoTrials)));
        assert!(matches!(
            Measurement::from_trials(&[]),
            Err(ScenarioError::NoTrials)
        ));
        assert!(matches!(
            ScenarioRunner::new(&s).curve(true).run_trials(0),
            Err(ScenarioError::NoTrials)
        ));
    }

    #[test]
    fn parallel_equals_sequential() {
        let s = scenario(5);
        let runner = ScenarioRunner::new(&s);
        let parallel = runner.run_trials(6).unwrap();
        let sequential = runner.sequential().run_trials(6).unwrap();
        assert_eq!(parallel, sequential);
        // Trial-level outcomes agree too, in order.
        assert_eq!(
            runner.collect_trials(6).unwrap(),
            runner.sequential().collect_trials(6).unwrap()
        );
    }

    #[test]
    fn reused_executor_trials_match_one_shot_trials() {
        let s = scenario(21);
        let runner = ScenarioRunner::new(&s);
        let mut executor = runner.executor();
        for t in 0..6 {
            assert_eq!(
                runner.run_trial_on(&mut executor, t),
                runner.run_trial(t),
                "trial {t} diverged between the reused executor and a fresh simulator"
            );
        }
        // Out-of-order and repeated trials reproduce too: outcomes depend on
        // the trial index only, never on executor history.
        for t in [3usize, 0, 5, 3] {
            assert_eq!(runner.run_trial_on(&mut executor, t), runner.run_trial(t));
        }
    }

    #[test]
    fn measurements_are_deterministic_per_seed() {
        let a = scenario(9).run_trials(4).unwrap();
        let b = scenario(9).run_trials(4).unwrap();
        assert_eq!(a, b);
        let c = scenario(10).run_trials(4).unwrap();
        assert_ne!(
            a.rounds, c.rounds,
            "different scenario seeds should diverge"
        );
    }

    #[test]
    fn trial_seeds_are_distinct_and_derived() {
        let s = scenario(2);
        let runner = ScenarioRunner::new(&s);
        let seeds: Vec<u64> = (0..16).map(|t| runner.trial_seed(t)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "trial seeds must not collide");
        assert!(
            !seeds.contains(&s.seed()),
            "trial seeds differ from the scenario seed"
        );
    }

    /// Pins the module-level trial-seed derivation contract: the exact
    /// constant and finalizer that campaign result stores depend on. If this
    /// test needs editing, every persisted store is invalidated — bump a
    /// store format version instead of silently changing the derivation.
    #[test]
    fn trial_seed_contract_is_pinned() {
        // An independent splitmix64-finalizer reimplementation.
        fn finalize(master: u64, stream: u64) -> u64 {
            let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let s = scenario(0xFEED);
        let runner = ScenarioRunner::new(&s);
        for t in 0..32 {
            assert_eq!(
                runner.trial_seed(t),
                finalize(0xFEED, TRIAL_STREAM_BASE ^ t as u64),
                "trial {t} seed diverged from the documented derivation"
            );
        }
        // And one literal value, so even a coordinated change to both sides
        // of the equation above cannot slip through unnoticed.
        assert_eq!(
            runner.trial_seed(0),
            finalize(0xFEED, 0x5CE7_AB10_0000_0000)
        );
    }

    #[test]
    fn record_modes_do_not_change_measurements() {
        let s = scenario(13);
        let runner = ScenarioRunner::new(&s);
        let fast = runner.run_trials(6).unwrap();
        let full = runner.record_mode(RecordMode::Full).run_trials(6).unwrap();
        let collisions_only = runner
            .record_mode(RecordMode::CollisionsOnly)
            .run_trials(6)
            .unwrap();
        assert_eq!(fast, full);
        assert_eq!(fast, collisions_only);
        assert_eq!(
            runner.collect_trials(6).unwrap(),
            runner
                .record_mode(RecordMode::Full)
                .collect_trials(6)
                .unwrap()
        );
    }

    #[test]
    fn curve_runs_promote_to_collisions_only_and_keep_scalars_identical() {
        let s = scenario(13);
        let runner = ScenarioRunner::new(&s);
        assert_eq!(runner.effective_record_mode(), RecordMode::None);
        let with_curve = runner.curve(true);
        assert!(with_curve.has_curve());
        assert_eq!(
            with_curve.effective_record_mode(),
            RecordMode::CollisionsOnly,
            "curves need per-round collision counts, not full history"
        );
        // An explicit full mode is left alone.
        assert_eq!(
            with_curve
                .record_mode(RecordMode::Full)
                .effective_record_mode(),
            RecordMode::Full
        );

        let plain = runner.run_trials(6).unwrap();
        let curved = with_curve.run_trials(6).unwrap();
        assert_eq!(plain.rounds, curved.rounds);
        assert_eq!(plain.completion, curved.completion);
        assert_eq!(plain.mean_collisions, curved.mean_collisions);
        assert!(plain.contention.is_none());
        let curve = curved.contention.expect("curve requested");
        assert_eq!(curve.trials(), 6);
        assert_eq!(
            curve.len(),
            plain.rounds.max as usize,
            "the curve spans the longest trial"
        );
        // The curve is consistent with the aggregate collision count: summing
        // mean collisions over rounds recovers mean collisions per trial.
        let total: f64 = curve.means().iter().sum();
        assert!(
            (total - plain.mean_collisions).abs() < 1e-9,
            "curve total {total} vs mean collisions {}",
            plain.mean_collisions
        );
    }

    #[test]
    fn streamed_curve_matches_per_trial_recomputation() {
        // Reference: collect each trial's curve directly from the engine and
        // fold in one batch; the runner's streaming path must agree exactly.
        let s = scenario(17);
        let runner = ScenarioRunner::new(&s).curve(true);
        let mut reference = ContentionCurve::new();
        for t in 0..5 {
            let outcome = s.run_with(runner.trial_seed(t), RecordMode::CollisionsOnly);
            reference.push_trial(&outcome.collisions_per_round);
        }
        let measured = runner.run_trials(5).unwrap().contention.unwrap();
        assert_eq!(measured, reference);
    }

    #[test]
    fn run_trial_into_streams_and_returns_scalar_outcomes() {
        let s = scenario(23);
        let runner = ScenarioRunner::new(&s).curve(true);
        let mut acc = runner.accumulator();
        let mut executor = runner.executor();
        let mut outcomes = Vec::new();
        for t in 0..4 {
            let outcome = runner.run_trial_into(&mut executor, t, &mut acc);
            assert_eq!(
                outcome.metrics.collisions_per_round, None,
                "returned outcomes carry scalars only"
            );
            outcomes.push(outcome);
        }
        assert_eq!(outcomes, runner.collect_trials(4).unwrap());
        assert_eq!(acc.len(), 4);
        let finished = acc.finish().unwrap();
        assert_eq!(finished, runner.run_trials(4).unwrap());
    }

    #[test]
    fn accumulator_moments_and_completion_track_the_batch() {
        let trials = vec![
            outcome(0, 10, true, 4),
            outcome(1, 20, false, 6),
            outcome(2, 30, true, 2),
        ];
        let mut acc = TrialAccumulator::new();
        assert!(acc.is_empty());
        for t in &trials {
            acc.push(&t.metrics);
        }
        assert_eq!(acc.len(), 3);
        assert_eq!(
            acc.completion(),
            Completion {
                completed: 2,
                trials: 3
            }
        );
        assert!((acc.cost_moments().mean() - 20.0).abs() < 1e-12);
        let m = acc.finish().unwrap();
        assert_eq!(m, Measurement::from_trials(&trials).unwrap());
        assert!(matches!(
            TrialAccumulator::new().finish(),
            Err(ScenarioError::NoTrials)
        ));
    }

    #[test]
    fn measurement_serde_round_trips() {
        let m = scenario(3).run_trials(4).unwrap();
        let back = Measurement::from_value(&m.to_value()).unwrap();
        assert_eq!(m, back);
        // With a curve, too.
        let curved = ScenarioRunner::new(&scenario(3))
            .curve(true)
            .run_trials(4)
            .unwrap();
        let back = Measurement::from_value(&curved.to_value()).unwrap();
        assert_eq!(curved, back);
    }

    #[test]
    fn measurement_serde_without_curve_keeps_the_legacy_shape() {
        // Measurements without a curve serialize with exactly the pre-curve
        // keys — byte compatibility for existing stores rides on this.
        let m = scenario(3).run_trials(4).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"rounds\""));
        assert!(json.contains("\"completion_rate\""));
        assert!(json.contains("\"mean_collisions\""));
        assert!(!json.contains("contention"), "{json}");
        // A legacy value (no contention key) deserializes with exact counts.
        let legacy: Measurement = serde_json::from_str(&json).unwrap();
        assert_eq!(legacy.completion.trials, 4);
        assert_eq!(legacy, m);
    }

    /// A fixed-rate beacon field: the source sends its DATA message with
    /// probability 1/2 each round and every other node its own at 1/8. It
    /// declares the matching `FixedRate` profile, so oblivious history-free
    /// fan-outs over it take the batch kernel.
    struct Beacon {
        msg: Message,
        rate: f64,
    }

    impl Process for Beacon {
        fn on_round(&mut self, _round: Round, rng: &mut dyn rand::RngCore) -> Action {
            if sampling::bernoulli(rng, self.rate) {
                Action::Transmit(self.msg.clone())
            } else {
                Action::Listen
            }
        }
        fn batch_profile(&self) -> BatchProfile {
            BatchProfile::FixedRate {
                rate: self.rate,
                message: Some(self.msg.clone()),
            }
        }
    }

    fn beacon_scenario(adversary: AdversarySpec, seed: u64) -> Scenario {
        let factory: ProcessFactory = std::sync::Arc::new(|ctx: &ProcessContext| {
            let rate = if ctx.role == Role::Source { 0.5 } else { 0.125 };
            let msg = Message::plain(ctx.id, kinds::DATA, ctx.id.index() as u64);
            Box::new(Beacon { msg, rate }) as Box<dyn Process>
        });
        Scenario::on(TopologySpec::DualClique { n: 16 })
            .custom_algorithm("beacon", factory)
            .adversary(adversary)
            .problem(ProblemSpec::GlobalFrom(0))
            .seed(seed)
            .max_rounds(400)
            .build()
            .expect("valid scenario")
    }

    /// The reference: every trial through one reused scalar executor.
    fn scalar_loop(runner: &ScenarioRunner<'_>, trials: usize) -> Vec<TrialOutcome> {
        let mut executor = runner.executor();
        (0..trials)
            .map(|t| runner.run_trial_on(&mut executor, t))
            .collect()
    }

    #[test]
    fn batch_fan_out_matches_scalar_everywhere() {
        let s = beacon_scenario(AdversarySpec::Iid { p: 0.5 }, 31);
        let runner = ScenarioRunner::new(&s);
        assert!(runner.uses_batch(), "fixed-rate + iid + RecordMode::None");
        // Trial-by-trial outcomes: ragged tail group (100 = 64 + 36), a
        // group smaller than one lane word, and both execution strategies.
        for trials in [100usize, 7, 64] {
            let expected = scalar_loop(&runner, trials);
            assert_eq!(
                runner.collect_trials(trials).unwrap(),
                expected,
                "{trials} trials"
            );
            assert_eq!(
                runner.sequential().collect_trials(trials).unwrap(),
                expected,
                "{trials} trials, sequential lane groups"
            );
        }
        // Measurements, with and without curve streaming.
        assert_eq!(
            runner.run_trials(70).unwrap(),
            Measurement::from_trials(&scalar_loop(&runner, 70)).unwrap()
        );
        let curved = runner.curve(true);
        let mut acc = curved.accumulator();
        let mut executor = curved.executor();
        for t in 0..70 {
            curved.run_trial_into(&mut executor, t, &mut acc);
        }
        assert_eq!(
            curved.run_trials(70).unwrap(),
            acc.finish().unwrap(),
            "batched lane groups stream the identical contention curve"
        );
    }

    #[test]
    fn unbatchable_runners_fall_back_to_scalar() {
        // Registered algorithms declare no fixed-rate profile.
        let s = scenario(5);
        let runner = ScenarioRunner::new(&s);
        assert!(!runner.uses_batch());
        assert_eq!(runner.collect_trials(5).unwrap(), scalar_loop(&runner, 5));
        // Full recording cannot batch, even over fixed-rate processes.
        let beacons = beacon_scenario(AdversarySpec::Iid { p: 0.5 }, 5);
        let full = ScenarioRunner::new(&beacons).record_mode(RecordMode::Full);
        assert!(!full.uses_batch());
        assert_eq!(full.collect_trials(5).unwrap(), scalar_loop(&full, 5));
        // An adaptive adversary cannot batch either.
        let adaptive = beacon_scenario(AdversarySpec::GreedyCollision, 3);
        let adaptive_runner = ScenarioRunner::new(&adaptive);
        assert!(!adaptive_runner.uses_batch());
        assert_eq!(
            adaptive_runner.run_trials(4).unwrap(),
            Measurement::from_trials(&scalar_loop(&adaptive_runner, 4)).unwrap()
        );
    }

    #[test]
    fn measurement_aggregates_counts() {
        let trials = vec![outcome(0, 10, true, 4), outcome(1, 20, false, 6)];
        let m = Measurement::from_trials(&trials).unwrap();
        assert_eq!(m.rounds.count, 2);
        assert_eq!(m.rounds.mean, 15.0);
        assert_eq!(m.completion_rate(), 0.5);
        assert_eq!(
            m.completion,
            Completion {
                completed: 1,
                trials: 2
            }
        );
        assert_eq!(m.mean_collisions, 5.0);
        assert!(m.contention.is_none());
        assert_eq!(trials[0].cost(), 10);
        assert!(trials[0].completed());
        assert_eq!(trials[1].collisions(), 6);
    }
}
