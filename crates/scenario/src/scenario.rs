//! The scenario value, its builder, and single-execution entry points.

use std::fmt;
use std::sync::Arc;

use dradio_graphs::DualGraph;
use dradio_sim::{
    AdversaryClass, Assignment, BatchExecutor, ExecutionOutcome, History, LinkProcess,
    ProcessFactory, RecordMode, SimConfig, Simulator, StopCondition, TrialExecutor,
};
use serde::{Deserialize, Serialize, Value};

use crate::adversary::AdversarySpec;
use crate::error::{Result, ScenarioError};
use crate::problem::{AlgorithmSpec, ProblemSpec, ResolvedProblem};
use crate::runner::{Measurement, ScenarioRunner};
use crate::topology::{BuiltTopology, TopologySpec};

/// Builds one fresh link process per trial. Adversaries are stateful, so the
/// scenario stores this recipe rather than an instance. This is the engine's
/// [`LinkFactory`](dradio_sim::LinkFactory) type: a scenario hands its recipe
/// straight to the [`TrialExecutor`]s it creates, which only invoke it when a
/// spent link process cannot [`reset`](LinkProcess::reset) itself.
pub type LinkBuilder = dradio_sim::LinkFactory;

/// The pure-value description of a scenario: what to simulate, against whom,
/// and from which seed.
///
/// A spec is `Clone + Debug + PartialEq + serde`, so scenarios can be
/// printed, stored, diffed and swept. Specs built entirely from declarative
/// variants round-trip through serialization and rebuild identically;
/// `Custom` variants record their name but need their runtime value
/// re-attached through [`ScenarioBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The network.
    pub topology: TopologySpec,
    /// The broadcast algorithm.
    pub algorithm: AlgorithmSpec,
    /// The link process recipe.
    pub adversary: AdversarySpec,
    /// The problem being solved.
    pub problem: ProblemSpec,
    /// Master seed; trial `t` of a runner derives its own seed from it.
    pub seed: u64,
    /// Per-execution round budget; `None` picks `200·n + 2000`.
    pub max_rounds: Option<usize>,
    /// Diagnostic collision-detection mode (off in the paper's model).
    pub collision_detection: bool,
}

impl Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("topology".into(), self.topology.to_value()),
            ("algorithm".into(), self.algorithm.to_value()),
            ("adversary".into(), self.adversary.to_value()),
            ("problem".into(), self.problem.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("max_rounds".into(), self.max_rounds.to_value()),
            (
                "collision_detection".into(),
                self.collision_detection.to_value(),
            ),
        ])
    }
}

impl Deserialize for ScenarioSpec {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::new(format!("ScenarioSpec is missing {name:?}")))
        };
        // The execution knobs default when absent so that hand-written spec
        // files can stay minimal.
        Ok(ScenarioSpec {
            topology: TopologySpec::from_value(field("topology")?)?,
            algorithm: AlgorithmSpec::from_value(field("algorithm")?)?,
            adversary: AdversarySpec::from_value(field("adversary")?)?,
            problem: ProblemSpec::from_value(field("problem")?)?,
            seed: match value.get("seed") {
                Some(v) => u64::from_value(v)?,
                None => 0,
            },
            max_rounds: match value.get("max_rounds") {
                Some(v) => Option::<usize>::from_value(v)?,
                None => None,
            },
            collision_detection: match value.get("collision_detection") {
                Some(v) => bool::from_value(v)?,
                None => false,
            },
        })
    }
}

impl ScenarioSpec {
    /// Resolves the spec into a runnable [`Scenario`].
    ///
    /// # Errors
    ///
    /// See [`ScenarioBuilder::build`].
    pub fn build(self) -> Result<Scenario> {
        ScenarioBuilder::from_spec(self).build()
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {} × {} × {} (seed {})",
            self.topology.label(),
            self.algorithm.name(),
            self.adversary.label(),
            self.problem.label(),
            self.seed
        )
    }
}

/// Fluent construction of a [`Scenario`].
///
/// ```
/// use dradio_core::algorithms::GlobalAlgorithm;
/// use dradio_scenario::{AdversarySpec, ProblemSpec, Scenario, TopologySpec};
///
/// let scenario = Scenario::on(TopologySpec::DualClique { n: 64 })
///     .algorithm(GlobalAlgorithm::Permuted)
///     .adversary(AdversarySpec::Iid { p: 0.5 })
///     .problem(ProblemSpec::GlobalFrom(0))
///     .seed(1)
///     .build()?;
/// let outcome = scenario.run();
/// assert!(outcome.completed);
/// assert!(scenario.verify(&outcome.history));
/// # Ok::<(), dradio_scenario::ScenarioError>(())
/// ```
pub struct ScenarioBuilder {
    topology: TopologySpec,
    attached_topology: Option<BuiltTopology>,
    algorithm: Option<AlgorithmSpec>,
    attached_factory: Option<ProcessFactory>,
    adversary: AdversarySpec,
    attached_link: Option<LinkBuilder>,
    problem: Option<ProblemSpec>,
    seed: u64,
    max_rounds: Option<usize>,
    collision_detection: bool,
    record_mode: RecordMode,
}

impl ScenarioBuilder {
    fn new(topology: TopologySpec, attached: Option<BuiltTopology>) -> Self {
        ScenarioBuilder {
            topology,
            attached_topology: attached,
            algorithm: None,
            attached_factory: None,
            adversary: AdversarySpec::StaticNone,
            attached_link: None,
            problem: None,
            seed: 0,
            max_rounds: None,
            collision_detection: false,
            record_mode: RecordMode::Full,
        }
    }

    /// Recreates a builder from a stored spec. Specs with `Custom` components
    /// need those components re-attached before [`ScenarioBuilder::build`]
    /// succeeds.
    pub fn from_spec(spec: ScenarioSpec) -> Self {
        let mut b = ScenarioBuilder::new(spec.topology, None);
        b.algorithm = Some(spec.algorithm);
        b.adversary = spec.adversary;
        b.problem = Some(spec.problem);
        b.seed = spec.seed;
        b.max_rounds = spec.max_rounds;
        b.collision_detection = spec.collision_detection;
        b
    }

    /// Sets the algorithm (accepts `GlobalAlgorithm`, `LocalAlgorithm`, or
    /// an [`AlgorithmSpec`]).
    pub fn algorithm(mut self, algorithm: impl Into<AlgorithmSpec>) -> Self {
        self.algorithm = Some(algorithm.into());
        self
    }

    /// Attaches a hand-written process factory under the given name. The
    /// scenario runs it, but a serialized spec records only the name.
    pub fn custom_algorithm(mut self, name: impl Into<String>, factory: ProcessFactory) -> Self {
        self.algorithm = Some(AlgorithmSpec::Custom { name: name.into() });
        self.attached_factory = Some(factory);
        self
    }

    /// Sets the adversary recipe (defaults to [`AdversarySpec::StaticNone`]).
    pub fn adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = adversary;
        self
    }

    /// Attaches a hand-written link-process recipe under the given name. The
    /// recipe is invoked once per trial (adversaries are stateful).
    pub fn custom_adversary(
        mut self,
        name: impl Into<String>,
        build: impl Fn() -> Box<dyn LinkProcess> + Send + Sync + 'static,
    ) -> Self {
        self.adversary = AdversarySpec::Custom { name: name.into() };
        self.attached_link = Some(Arc::new(build));
        self
    }

    /// Sets the problem.
    pub fn problem(mut self, problem: ProblemSpec) -> Self {
        self.problem = Some(problem);
        self
    }

    /// Sets the master seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-execution round budget (default `200·n + 2000`).
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Enables the diagnostic collision-detection mode.
    pub fn collision_detection(mut self, enabled: bool) -> Self {
        self.collision_detection = enabled;
        self
    }

    /// Sets how much of each execution is retained (default
    /// [`RecordMode::Full`], so [`Scenario::run`] keeps the history that
    /// [`Scenario::verify`] inspects). Trial fan-out through
    /// [`ScenarioRunner`] defaults to [`RecordMode::None`] instead — see its
    /// documentation. The mode never changes what an adaptive adversary
    /// sees, only what the outcome carries.
    pub fn record_mode(mut self, record_mode: RecordMode) -> Self {
        self.record_mode = record_mode;
        self
    }

    /// Replaces the topology with a directly supplied network (also
    /// reachable via [`Scenario::on_dual`]).
    pub fn custom_dual(mut self, dual: DualGraph) -> Self {
        self.topology = TopologySpec::Custom {
            name: dual.name().to_string(),
        };
        self.attached_topology = Some(BuiltTopology::plain(dual));
        self
    }

    /// Attaches an already-built topology for this builder's declarative
    /// spec, so expensive generators (e.g. large random geometric
    /// deployments) can be built once and shared across scenarios that
    /// differ only in algorithm or adversary.
    ///
    /// The caller guarantees `built` is what the spec's
    /// [`build`](TopologySpec::build) would produce, in any layout — the
    /// spec itself is recorded unchanged, so a serialized spec still
    /// rebuilds the same network. A network converted with
    /// [`DualGraph::with_graph_backend`] runs identically; that is how the
    /// equivalence suites compare layouts.
    pub fn with_topology(mut self, built: BuiltTopology) -> Self {
        self.attached_topology = Some(built);
        self
    }

    /// Resolves every component and validates their combination.
    ///
    /// # Errors
    ///
    /// * [`ScenarioError::Missing`] if no algorithm or problem was set.
    /// * [`ScenarioError::Incompatible`] for kind mismatches (global
    ///   algorithm × local problem and vice versa) or specs whose topology
    ///   requirements are unmet.
    /// * [`ScenarioError::CustomUnavailable`] if a `Custom` spec component
    ///   has no attached value.
    /// * [`ScenarioError::Topology`] if the topology generator rejects its
    ///   parameters.
    pub fn build(self) -> Result<Scenario> {
        let topology = match self.attached_topology {
            Some(t) => t,
            None => self.topology.build()?,
        };
        let algorithm = self
            .algorithm
            .ok_or(ScenarioError::Missing { what: "algorithm" })?;
        let problem = self
            .problem
            .ok_or(ScenarioError::Missing { what: "problem" })?;

        if let Some(algo_global) = algorithm.is_global() {
            if algo_global != problem.is_global() {
                return Err(ScenarioError::Incompatible {
                    reason: format!(
                        "algorithm {} solves {} broadcast but the problem {} is {}",
                        algorithm.name(),
                        if algo_global { "global" } else { "local" },
                        problem.label(),
                        if problem.is_global() {
                            "global"
                        } else {
                            "local"
                        },
                    ),
                });
            }
        }

        let resolved = problem.resolve(&topology)?;
        let assignment = resolved.assignment(&topology);
        let stop = resolved.stop_condition(&topology);

        let factory = match (&algorithm, self.attached_factory) {
            (AlgorithmSpec::Custom { .. }, Some(factory)) => factory,
            (AlgorithmSpec::Custom { .. }, None) => {
                return Err(ScenarioError::CustomUnavailable { what: "algorithm" });
            }
            (spec, _) => spec.factory(topology.len(), topology.max_degree())?,
        };

        let link: LinkBuilder = match (&self.adversary, self.attached_link) {
            (AdversarySpec::Custom { .. }, Some(link)) => link,
            (AdversarySpec::Custom { .. }, None) => {
                return Err(ScenarioError::CustomUnavailable { what: "adversary" });
            }
            (spec, _) => {
                // Validate the recipe once up front so per-trial construction
                // cannot fail later (inside worker threads).
                spec.build(&topology)?;
                let spec = spec.clone();
                let topo = topology.clone();
                Arc::new(move || {
                    spec.build(&topo)
                        // lint: allow(D4) -- adversary spec was validated at scenario build time
                        .expect("adversary spec was validated at scenario build time")
                })
            }
        };

        let max_rounds = self.max_rounds.unwrap_or(200 * topology.len() + 2_000);
        // Reject configurations the simulator would refuse (e.g. a zero
        // round budget) here, so run()'s "validated at build time" expect
        // cannot fire later inside worker threads.
        SimConfig::default()
            .with_max_rounds(max_rounds)
            .validate()?;

        Ok(Scenario {
            spec: ScenarioSpec {
                topology: self.topology,
                algorithm,
                adversary: self.adversary,
                problem,
                seed: self.seed,
                max_rounds: Some(max_rounds),
                collision_detection: self.collision_detection,
            },
            topology,
            factory,
            assignment,
            stop,
            link,
            resolved,
            max_rounds,
            collision_detection: self.collision_detection,
            record_mode: self.record_mode,
        })
    }
}

/// A fully resolved scenario: one (topology × algorithm × adversary ×
/// problem) combination, ready to execute any number of independent trials.
///
/// Built through [`Scenario::on`] / [`ScenarioBuilder`]; see the
/// [crate documentation](crate) for the full model.
#[derive(Clone)]
pub struct Scenario {
    spec: ScenarioSpec,
    topology: BuiltTopology,
    factory: ProcessFactory,
    assignment: Assignment,
    stop: StopCondition,
    link: LinkBuilder,
    resolved: ResolvedProblem,
    max_rounds: usize,
    collision_detection: bool,
    record_mode: RecordMode,
}

impl Scenario {
    /// Starts a builder on the given topology.
    pub fn on(topology: TopologySpec) -> ScenarioBuilder {
        ScenarioBuilder::new(topology, None)
    }

    /// Starts a builder on a directly supplied network (for topologies no
    /// generator covers, e.g. hand-built attack graphs).
    pub fn on_dual(dual: DualGraph) -> ScenarioBuilder {
        let spec = TopologySpec::Custom {
            name: dual.name().to_string(),
        };
        ScenarioBuilder::new(spec, Some(BuiltTopology::plain(dual)))
    }

    /// The pure-value description of this scenario.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The resolved topology (network plus construction metadata).
    pub fn topology(&self) -> &BuiltTopology {
        &self.topology
    }

    /// The network being simulated.
    pub fn dual(&self) -> &DualGraph {
        &self.topology.dual
    }

    /// The role assignment derived from the problem.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The completion condition derived from the problem.
    pub fn stop_condition(&self) -> &StopCondition {
        &self.stop
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.spec.seed
    }

    /// The per-execution round budget.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// The record mode single executions run with, and so what their
    /// outcomes carry.
    pub fn record_mode(&self) -> RecordMode {
        self.record_mode
    }

    /// Runs one execution with the scenario's own seed.
    pub fn run(&self) -> ExecutionOutcome {
        self.run_with_seed(self.spec.seed)
    }

    /// Runs one execution with an explicit master seed (the runner uses this
    /// with derived per-trial seeds).
    pub fn run_with_seed(&self, seed: u64) -> ExecutionOutcome {
        self.run_with(seed, self.record_mode)
    }

    /// Runs one execution with an explicit master seed and record mode
    /// (overriding the scenario's own mode; [`ScenarioRunner`] uses this for
    /// its history-free trial fan-out).
    pub fn run_with(&self, seed: u64, record_mode: RecordMode) -> ExecutionOutcome {
        let config = SimConfig::default()
            .with_seed(seed)
            .with_max_rounds(self.max_rounds)
            .with_collision_detection(self.collision_detection)
            .with_record_mode(record_mode);
        Simulator::new(
            Arc::clone(&self.topology.dual),
            self.factory.clone(),
            self.assignment.clone(),
            (self.link)(),
            config,
        )
        // lint: allow(D4) -- components were validated when the scenario was built
        .expect("scenario components were validated at build time")
        .run(self.stop.clone())
    }

    /// A reusable [`TrialExecutor`] over this scenario: the network is shared
    /// (never copied), and the per-trial mutable state — processes, random
    /// streams, stop tracking, round scratch — is reused in place across
    /// [`execute`](TrialExecutor::execute) calls. Each worker of a trial
    /// fan-out holds one.
    ///
    /// `executor.execute(seed, mode)` produces exactly the outcome of
    /// [`Scenario::run_with(seed, mode)`](Scenario::run_with); the root
    /// `integration_executor` suite pins this for every registered component
    /// class.
    pub fn executor(&self) -> TrialExecutor {
        let config = SimConfig::default()
            .with_seed(self.spec.seed)
            .with_max_rounds(self.max_rounds)
            .with_collision_detection(self.collision_detection)
            .with_record_mode(self.record_mode);
        TrialExecutor::new(
            Arc::clone(&self.topology.dual),
            self.factory.clone(),
            self.assignment.clone(),
            self.link.clone(),
            self.stop.clone(),
            config,
        )
        // lint: allow(D4) -- components were validated when the scenario was built
        .expect("scenario components were validated at build time")
    }

    /// A reusable [`BatchExecutor`] over this scenario: the bit-sliced
    /// counterpart of [`executor`](Scenario::executor), running up to
    /// [`MAX_LANES`](dradio_sim::MAX_LANES) trials per word pass. Lane `k` of
    /// a group seeded `[trial_seed(t0), trial_seed(t0+1), ..]` produces
    /// exactly the outcome `executor().execute(trial_seed(t0+k), mode)`
    /// would.
    ///
    /// # Errors
    ///
    /// [`SimError::UnsupportedBatch`](dradio_sim::SimError::UnsupportedBatch)
    /// when some process lacks a fixed-rate profile or the adversary is not
    /// oblivious; callers run the scalar executor instead (see
    /// [`Scenario::is_batchable`]).
    pub fn batch_executor(&self) -> dradio_sim::Result<BatchExecutor> {
        let config = SimConfig::default()
            .with_seed(self.spec.seed)
            .with_max_rounds(self.max_rounds)
            .with_collision_detection(self.collision_detection)
            .with_record_mode(self.record_mode);
        BatchExecutor::new(
            Arc::clone(&self.topology.dual),
            self.factory.clone(),
            self.assignment.clone(),
            self.link.clone(),
            self.stop.clone(),
            config,
        )
    }

    /// Whether trial fan-outs over this scenario run on the bit-sliced
    /// [`BatchExecutor`] under `record_mode` — the one batching rule, with
    /// no knob: `record_mode` keeps no history, the adversary is declared
    /// oblivious (custom specs, whose class is unknown, and adaptive classes
    /// are not), and every process declares a coherent
    /// [`BatchProfile::FixedRate`](dradio_sim::BatchProfile::FixedRate).
    /// Everything else runs on the scalar [`TrialExecutor`].
    ///
    /// The process probe runs last and stops at the first
    /// [`Generic`](dradio_sim::BatchProfile::Generic) profile, before any
    /// link process or lane buffer exists, so a scalar algorithm costs one
    /// process construction. [`Scenario::batch_executor`] re-checks the
    /// actual link process it constructs.
    pub fn is_batchable(&self, record_mode: RecordMode) -> bool {
        !record_mode.records_history()
            && self.spec.adversary.class() == Some(AdversaryClass::Oblivious)
            && BatchExecutor::supports(&self.topology.dual, &self.factory, &self.assignment)
    }

    /// Checks a recorded history against the problem's correctness
    /// criterion (independent of the stop condition).
    pub fn verify(&self, history: &History) -> bool {
        self.resolved.verify(&self.topology, history)
    }

    /// A runner over this scenario (parallel by default).
    pub fn runner(&self) -> ScenarioRunner<'_> {
        ScenarioRunner::new(self)
    }

    /// Convenience: runs `trials` independent trials in parallel and
    /// summarizes them. See [`ScenarioRunner::run_trials`].
    ///
    /// # Errors
    ///
    /// [`ScenarioError::NoTrials`] if `trials` is zero.
    pub fn run_trials(&self, trials: usize) -> Result<Measurement> {
        self.runner().run_trials(trials)
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("spec", &self.spec)
            .field("n", &self.topology.len())
            .field("max_rounds", &self.max_rounds)
            .finish()
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.spec.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dradio_core::algorithms::{GlobalAlgorithm, LocalAlgorithm};
    use dradio_core::kinds;
    use dradio_graphs::topology;
    use dradio_sim::StaticLinks;
    use dradio_sim::{Action, Message, Process, ProcessContext, Role, Round};
    use rand::RngCore;

    fn permuted_iid(n: usize, seed: u64) -> Scenario {
        Scenario::on(TopologySpec::DualClique { n })
            .algorithm(GlobalAlgorithm::Permuted)
            .adversary(AdversarySpec::Iid { p: 0.5 })
            .problem(ProblemSpec::GlobalFrom(0))
            .seed(seed)
            .max_rounds(20_000)
            .build()
            .expect("valid scenario")
    }

    #[test]
    fn builder_produces_a_runnable_scenario() {
        let scenario = permuted_iid(16, 7);
        let outcome = scenario.run();
        assert!(outcome.completed);
        assert!(scenario.verify(&outcome.history));
        assert_eq!(scenario.seed(), 7);
        assert_eq!(scenario.max_rounds(), 20_000);
        assert!(scenario.to_string().contains("dual-clique(16)"));
    }

    #[test]
    fn executions_are_deterministic_per_seed() {
        let scenario = permuted_iid(16, 3);
        let a = scenario.run();
        let b = scenario.run();
        assert_eq!(a.history, b.history);
        assert_eq!(a.metrics, b.metrics);
        let c = scenario.run_with_seed(4);
        assert_ne!(a.history, c.history, "different seeds should diverge");
    }

    #[test]
    fn missing_components_are_reported() {
        let err = Scenario::on(TopologySpec::Clique { n: 8 })
            .problem(ProblemSpec::GlobalFrom(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Missing { what: "algorithm" }));

        let err = Scenario::on(TopologySpec::Clique { n: 8 })
            .algorithm(GlobalAlgorithm::Bgi)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Missing { what: "problem" }));
    }

    #[test]
    fn kind_mismatches_are_rejected() {
        let err = Scenario::on(TopologySpec::Clique { n: 8 })
            .algorithm(GlobalAlgorithm::Bgi)
            .problem(ProblemSpec::Local {
                broadcasters: vec![1],
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Incompatible { .. }));

        let err = Scenario::on(TopologySpec::Clique { n: 8 })
            .algorithm(LocalAlgorithm::Uniform)
            .problem(ProblemSpec::GlobalFrom(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Incompatible { .. }));
    }

    #[test]
    fn spec_round_trips_and_rebuilds_identically() {
        let scenario = permuted_iid(16, 9);
        let json = serde_json::to_string(scenario.spec()).unwrap();
        let spec: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(&spec, scenario.spec());
        let rebuilt = spec.build().unwrap();
        let a = scenario.run();
        let b = rebuilt.run();
        assert_eq!(a.history, b.history);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn deserialized_custom_specs_need_reattachment() {
        let spec = ScenarioSpec {
            topology: TopologySpec::Custom {
                name: "gone".into(),
            },
            algorithm: AlgorithmSpec::Global(GlobalAlgorithm::Bgi),
            adversary: AdversarySpec::StaticNone,
            problem: ProblemSpec::GlobalFrom(0),
            seed: 0,
            max_rounds: None,
            collision_detection: false,
        };
        assert!(matches!(
            spec.build().unwrap_err(),
            ScenarioError::CustomUnavailable { what: "topology" }
        ));
    }

    /// The source transmits every round; used to test the custom escape
    /// hatches.
    struct Shout {
        msg: Option<Message>,
    }
    impl Process for Shout {
        fn on_round(&mut self, _round: Round, _rng: &mut dyn RngCore) -> Action {
            match &self.msg {
                Some(m) => Action::Transmit(m.clone()),
                None => Action::Listen,
            }
        }
    }

    #[test]
    fn custom_topology_algorithm_and_adversary_compose() {
        let dual = topology::star(5).unwrap();
        let factory: ProcessFactory = Arc::new(|ctx: &ProcessContext| {
            let msg = (ctx.role == Role::Source).then(|| Message::plain(ctx.id, kinds::DATA, 1));
            Box::new(Shout { msg }) as Box<dyn Process>
        });
        let scenario = Scenario::on_dual(dual)
            .custom_algorithm("shout", factory)
            .custom_adversary("quiet", || Box::new(StaticLinks::none()))
            .problem(ProblemSpec::GlobalFrom(0))
            .max_rounds(5)
            .build()
            .expect("custom scenario builds");
        let outcome = scenario.run();
        assert!(
            outcome.completed,
            "hub shout reaches all leaves in one round"
        );
        assert!(scenario.verify(&outcome.history));
        // The spec still describes the custom parts by name.
        let json = serde_json::to_string(scenario.spec()).unwrap();
        assert!(json.contains("shout"));
        assert!(json.contains("quiet"));
    }

    #[test]
    fn default_round_budget_scales_with_n() {
        let scenario = Scenario::on(TopologySpec::Clique { n: 10 })
            .algorithm(GlobalAlgorithm::Bgi)
            .problem(ProblemSpec::GlobalFrom(0))
            .build()
            .unwrap();
        assert_eq!(scenario.max_rounds(), 200 * 10 + 2_000);
    }

    #[test]
    fn zero_round_budget_is_rejected_at_build_time() {
        let err = Scenario::on(TopologySpec::Clique { n: 8 })
            .algorithm(GlobalAlgorithm::Bgi)
            .problem(ProblemSpec::GlobalFrom(0))
            .max_rounds(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Sim(_)));
    }

    #[test]
    fn scenario_record_mode_defaults_to_full_and_is_settable() {
        let scenario = permuted_iid(16, 7);
        assert_eq!(scenario.record_mode(), RecordMode::Full);
        let outcome = scenario.run();
        assert!(
            !outcome.history.is_empty(),
            "run() keeps history for verify"
        );

        let fast = Scenario::on(TopologySpec::DualClique { n: 16 })
            .algorithm(GlobalAlgorithm::Permuted)
            .adversary(AdversarySpec::Iid { p: 0.5 })
            .problem(ProblemSpec::GlobalFrom(0))
            .seed(7)
            .max_rounds(20_000)
            .record_mode(RecordMode::None)
            .build()
            .unwrap();
        let light = fast.run();
        assert!(light.history.is_empty());
        // Identical behaviour: same cost and metrics as the recorded run.
        assert_eq!(light.metrics, outcome.metrics);
        assert_eq!(light.completion_round, outcome.completion_round);
    }

    #[test]
    fn prebuilt_topologies_are_reused_without_changing_the_spec() {
        let spec = TopologySpec::RandomGeometric {
            n: 30,
            side: 2.0,
            r: 1.5,
            seed: 5,
        };
        let built = spec.build().unwrap();
        let scenario = Scenario::on(spec.clone())
            .with_topology(built.clone())
            .algorithm(LocalAlgorithm::StaticDecay)
            .problem(ProblemSpec::LocalRandom { count: 4, seed: 1 })
            .build()
            .unwrap();
        assert_eq!(scenario.dual(), built.dual.as_ref());
        assert_eq!(scenario.spec().topology, spec);
    }
}
