//! Declarative campaign specifications and their deterministic expansion.
//!
//! A [`CampaignSpec`] is a pure value — serializable, diffable, printable —
//! describing a *sweep*: one or more [`SweepGroup`]s, each the cartesian
//! product of four axes (topologies × algorithms × adversaries × problems),
//! plus the trial policy and round budgets the cells run with. Expansion into
//! [`CellSpec`]s is deterministic and duplicate-free, and every cell carries
//! a content-hash [`CellSpec::key`] that the result store uses to recognise
//! already-measured cells across restarts.

use std::fmt;

use dradio_scenario::{
    AdversarySpec, AlgorithmSpec, ProblemSpec, RecordMode, ScenarioSpec, TopologySpec,
};
use serde::{Deserialize, Serialize, Value};

use crate::error::{CampaignError, Result};

/// Which statistic an adaptive trial policy targets with its stopping rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopRule {
    /// Stop when the ~95% CI for the *mean cost* is tighter than
    /// `relative_width · mean` — the classic precision target for
    /// upper-bound experiments, and the rule every pre-`StopRule` spec ran
    /// with. The default.
    #[default]
    MeanCostCi,
    /// Stop when the half-width of the ~95% **Wilson score interval** for
    /// the *completion rate* is at most `relative_width` (an absolute
    /// half-width on a probability; e.g. `0.1` for ±10 percentage points).
    /// The right target for lower-bound experiments whose claim is "the
    /// algorithm cannot finish", where mean-cost precision says little.
    CompletionCi,
}

serde::serde_enum!(StopRule {
    MeanCostCi,
    CompletionCi,
});

/// How many trials a cell runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrialPolicy {
    /// Exactly this many trials.
    Fixed(usize),
    /// Adaptive allocation: run at least `min` trials, then keep doubling the
    /// trial count (capped at `max`) until the [`StopRule`]'s target
    /// statistic is tighter than `relative_width`.
    ///
    /// Stopping is evaluated on the deterministic per-trial outcomes in index
    /// order, so the allocated count — like the measurements themselves —
    /// depends only on the cell spec, never on scheduling.
    Adaptive {
        /// Minimum trials before the first stopping check.
        min: usize,
        /// Hard upper bound on trials.
        max: usize,
        /// Requested precision: relative CI half-width for
        /// [`StopRule::MeanCostCi`] (e.g. `0.05` for ±5%), absolute Wilson
        /// half-width for [`StopRule::CompletionCi`].
        relative_width: f64,
        /// The targeted statistic (defaults to [`StopRule::MeanCostCi`],
        /// and is omitted from the serialized form at that default so every
        /// pre-`StopRule` spec keeps its exact bytes — and therefore its
        /// [`CellSpec::key`]).
        stop: StopRule,
    },
}

// Hand-written (instead of `serde_enum!`) so the default stop rule
// serializes to the exact pre-`StopRule` bytes: `{"Adaptive":{"min":..,
// "max":..,"relative_width":..}}`, with a `"stop"` key appended only for
// non-default rules. Cell keys hash this serialization, so the default
// must stay byte-identical forever.
impl Serialize for TrialPolicy {
    fn to_value(&self) -> Value {
        match self {
            TrialPolicy::Fixed(trials) => Value::Map(vec![("Fixed".into(), trials.to_value())]),
            TrialPolicy::Adaptive {
                min,
                max,
                relative_width,
                stop,
            } => {
                let mut fields = vec![
                    ("min".into(), min.to_value()),
                    ("max".into(), max.to_value()),
                    ("relative_width".into(), relative_width.to_value()),
                ];
                if *stop != StopRule::default() {
                    fields.push(("stop".into(), stop.to_value()));
                }
                Value::Map(vec![("Adaptive".into(), Value::Map(fields))])
            }
        }
    }
}

impl Deserialize for TrialPolicy {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        let (name, payload) = value
            .as_variant()
            .ok_or_else(|| serde::Error::expected("a TrialPolicy variant", value))?;
        let payload =
            payload.ok_or_else(|| serde::Error::new(format!("{name} needs a payload")))?;
        match name {
            "Fixed" => Ok(TrialPolicy::Fixed(usize::from_value(payload)?)),
            "Adaptive" => {
                let field = |field: &str| {
                    payload.get(field).ok_or_else(|| {
                        serde::Error::new(format!(
                            "TrialPolicy::Adaptive is missing field {field:?}"
                        ))
                    })
                };
                Ok(TrialPolicy::Adaptive {
                    min: usize::from_value(field("min")?)?,
                    max: usize::from_value(field("max")?)?,
                    relative_width: f64::from_value(field("relative_width")?)?,
                    stop: match payload.get("stop") {
                        Some(v) => StopRule::from_value(v)?,
                        None => StopRule::default(),
                    },
                })
            }
            other => Err(serde::Error::new(format!(
                "unknown TrialPolicy variant {other:?}"
            ))),
        }
    }
}

impl TrialPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] on zero-trial or degenerate configurations —
    /// asking for zero trials is a spec error, surfaced before any cell runs.
    pub fn validate(&self) -> Result<()> {
        match *self {
            TrialPolicy::Fixed(0) => Err(CampaignError::spec(
                "trial policy asks for zero trials; a cell needs at least one",
            )),
            TrialPolicy::Fixed(_) => Ok(()),
            TrialPolicy::Adaptive {
                min,
                max,
                relative_width,
                stop,
            } => {
                if min == 0 {
                    Err(CampaignError::spec(
                        "adaptive trial policy needs min >= 1 trials",
                    ))
                } else if max < min {
                    Err(CampaignError::spec(format!(
                        "adaptive trial policy has max ({max}) below min ({min})"
                    )))
                } else if !relative_width.is_finite() || relative_width <= 0.0 {
                    Err(CampaignError::spec(format!(
                        "adaptive trial policy needs a positive finite relative width, \
                         got {relative_width}"
                    )))
                } else if stop == StopRule::CompletionCi && relative_width >= 1.0 {
                    Err(CampaignError::spec(format!(
                        "a completion-targeted stop rule needs a Wilson half-width target \
                         below 1 (a probability half-width), got {relative_width}"
                    )))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// How a group derives each cell's round budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundsRule {
    /// Leave the budget to the scenario default (`200·n + 2000`).
    #[default]
    ScenarioDefault,
    /// The same explicit budget for every cell of the group.
    Fixed(usize),
    /// An affine budget in the network size: `per_node · max(n, min_nodes) +
    /// base`, with `n` taken from [`TopologySpec::node_count`].
    PerNode {
        /// Rounds per node.
        per_node: usize,
        /// Constant offset.
        base: usize,
        /// Lower clamp on the node count entering the formula.
        min_nodes: usize,
    },
}

serde::serde_enum!(RoundsRule {
    ScenarioDefault,
    Fixed(usize),
    PerNode { per_node: usize, base: usize, min_nodes: usize },
});

impl RoundsRule {
    /// Resolves the rule against a topology into the scenario's
    /// `max_rounds` field.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] for a zero budget, or a [`RoundsRule::PerNode`]
    /// rule applied to a topology whose size is not derivable from its spec.
    pub fn resolve(&self, topology: &TopologySpec) -> Result<Option<usize>> {
        match *self {
            RoundsRule::ScenarioDefault => Ok(None),
            RoundsRule::Fixed(0) => Err(CampaignError::spec(
                "round budget rule fixes a zero budget; the simulator needs at least one round",
            )),
            RoundsRule::Fixed(rounds) => Ok(Some(rounds)),
            RoundsRule::PerNode {
                per_node,
                base,
                min_nodes,
            } => {
                let n = topology.node_count().ok_or_else(|| {
                    CampaignError::spec(format!(
                        "a per-node round budget needs a topology with a derivable size, \
                         but {} has none",
                        topology.label()
                    ))
                })?;
                let budget = per_node
                    .saturating_mul(n.max(min_nodes))
                    .saturating_add(base);
                if budget == 0 {
                    return Err(CampaignError::spec(
                        "per-node round budget resolves to zero rounds",
                    ));
                }
                Ok(Some(budget))
            }
        }
    }
}

/// One cartesian-product block of a campaign: every combination of the four
/// axes, sharing a seed, trial policy, and round-budget rule.
///
/// A group with four singleton axes is a single explicit cell, so irregular
/// sweeps (per-size budgets, per-block seeds) are expressed as a list of
/// small groups — still pure data.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGroup {
    /// The topology axis.
    pub topologies: Vec<TopologySpec>,
    /// The algorithm axis.
    pub algorithms: Vec<AlgorithmSpec>,
    /// The adversary axis.
    pub adversaries: Vec<AdversarySpec>,
    /// The problem axis.
    pub problems: Vec<ProblemSpec>,
    /// Scenario seed override for this group (`None` inherits the campaign
    /// seed).
    pub seed: Option<u64>,
    /// Trial policy override for this group (`None` inherits the campaign
    /// policy).
    pub trials: Option<TrialPolicy>,
    /// Round-budget rule for this group's cells.
    pub rounds: RoundsRule,
    /// Diagnostic collision-detection mode.
    pub collision_detection: bool,
    /// How much of each trial execution the engine retains (default
    /// [`RecordMode::None`]: cells only keep aggregate measurements, so
    /// recording history per trial is pure overhead). Not part of a cell's
    /// identity — measurements are identical under every mode.
    pub record_mode: RecordMode,
    /// Whether this group's cells stream a mean contention-over-time curve
    /// into their measurements. Requesting a curve auto-promotes a
    /// [`RecordMode::None`] cell to [`RecordMode::CollisionsOnly`] at
    /// expansion time (per-round counts are needed; full history is not).
    /// Like the record mode, this is **not** part of a cell's identity: the
    /// scalar statistics are identical with and without the curve.
    pub curve: bool,
}

impl SweepGroup {
    /// A group over the full product of the four axes.
    pub fn product(
        topologies: Vec<TopologySpec>,
        algorithms: Vec<AlgorithmSpec>,
        adversaries: Vec<AdversarySpec>,
        problems: Vec<ProblemSpec>,
    ) -> Self {
        SweepGroup {
            topologies,
            algorithms,
            adversaries,
            problems,
            seed: None,
            trials: None,
            rounds: RoundsRule::ScenarioDefault,
            collision_detection: false,
            record_mode: RecordMode::None,
            curve: false,
        }
    }

    /// A single explicit cell (all four axes singleton).
    pub fn cell(
        topology: TopologySpec,
        algorithm: impl Into<AlgorithmSpec>,
        adversary: AdversarySpec,
        problem: ProblemSpec,
    ) -> Self {
        SweepGroup::product(
            vec![topology],
            vec![algorithm.into()],
            vec![adversary],
            vec![problem],
        )
    }

    /// Overrides the scenario seed for this group.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Overrides the trial policy for this group.
    pub fn trials(mut self, trials: TrialPolicy) -> Self {
        self.trials = Some(trials);
        self
    }

    /// Sets the round-budget rule for this group.
    pub fn rounds(mut self, rounds: RoundsRule) -> Self {
        self.rounds = rounds;
        self
    }

    /// Enables the diagnostic collision-detection mode for this group.
    pub fn collision_detection(mut self, enabled: bool) -> Self {
        self.collision_detection = enabled;
        self
    }

    /// Overrides the record mode this group's cells run with (default
    /// [`RecordMode::None`]).
    pub fn record_mode(mut self, record_mode: RecordMode) -> Self {
        self.record_mode = record_mode;
        self
    }

    /// Requests a mean contention-over-time curve in this group's
    /// measurements (default off).
    pub fn curve(mut self, enabled: bool) -> Self {
        self.curve = enabled;
        self
    }

    fn validate(&self, index: usize) -> Result<()> {
        let check_axis = |name: &str, len: usize| {
            if len == 0 {
                Err(CampaignError::spec(format!(
                    "group {index} has an empty {name} axis; every axis needs at least one entry"
                )))
            } else {
                Ok(())
            }
        };
        check_axis("topology", self.topologies.len())?;
        check_axis("algorithm", self.algorithms.len())?;
        check_axis("adversary", self.adversaries.len())?;
        check_axis("problem", self.problems.len())?;
        if let Some(t) = self.topologies.iter().find_map(|t| match t {
            TopologySpec::Custom { name } => Some(name),
            _ => None,
        }) {
            return Err(CampaignError::spec(format!(
                "group {index} sweeps the custom topology {t:?}; campaigns are fully \
                 declarative and cannot carry runtime-attached components"
            )));
        }
        if let Some(a) = self.algorithms.iter().find_map(|a| match a {
            AlgorithmSpec::Custom { name } => Some(name),
            _ => None,
        }) {
            return Err(CampaignError::spec(format!(
                "group {index} sweeps the custom algorithm {a:?}; campaigns are fully \
                 declarative and cannot carry runtime-attached components"
            )));
        }
        if let Some(a) = self.adversaries.iter().find_map(|a| match a {
            AdversarySpec::Custom { name } => Some(name),
            _ => None,
        }) {
            return Err(CampaignError::spec(format!(
                "group {index} sweeps the custom adversary {a:?}; campaigns are fully \
                 declarative and cannot carry runtime-attached components"
            )));
        }
        if let Some(t) = &self.trials {
            t.validate()?;
        }
        Ok(())
    }
}

impl Serialize for SweepGroup {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("topologies".into(), self.topologies.to_value()),
            ("algorithms".into(), self.algorithms.to_value()),
            ("adversaries".into(), self.adversaries.to_value()),
            ("problems".into(), self.problems.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("trials".into(), self.trials.to_value()),
            ("rounds".into(), self.rounds.to_value()),
            (
                "collision_detection".into(),
                self.collision_detection.to_value(),
            ),
            ("record_mode".into(), self.record_mode.to_value()),
            ("curve".into(), self.curve.to_value()),
        ])
    }
}

impl Deserialize for SweepGroup {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::new(format!("SweepGroup is missing {name:?}")))
        };
        Ok(SweepGroup {
            topologies: Vec::from_value(field("topologies")?)?,
            algorithms: Vec::from_value(field("algorithms")?)?,
            adversaries: Vec::from_value(field("adversaries")?)?,
            problems: Vec::from_value(field("problems")?)?,
            seed: match value.get("seed") {
                Some(v) => Option::from_value(v)?,
                None => None,
            },
            trials: match value.get("trials") {
                Some(v) => Option::from_value(v)?,
                None => None,
            },
            rounds: match value.get("rounds") {
                Some(v) => RoundsRule::from_value(v)?,
                None => RoundsRule::ScenarioDefault,
            },
            collision_detection: match value.get("collision_detection") {
                Some(v) => bool::from_value(v)?,
                None => false,
            },
            record_mode: match value.get("record_mode") {
                Some(v) => RecordMode::from_value(v)?,
                None => RecordMode::None,
            },
            curve: match value.get("curve") {
                Some(v) => bool::from_value(v)?,
                None => false,
            },
            // Legacy `"batch"` and `"backend"` keys, from specs written
            // while batching and the graph layout were knobs, are ignored
            // whatever their value: the runner and the dual graph decide.
        })
    }
}

/// A whole measurement campaign: named, seeded, and built from groups.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (used for default store paths and report titles).
    pub name: String,
    /// Default scenario seed for groups without an override.
    pub seed: u64,
    /// Default trial policy for groups without an override.
    pub trials: TrialPolicy,
    /// The sweep groups, expanded in declaration order.
    pub groups: Vec<SweepGroup>,
}

impl CampaignSpec {
    /// Starts an empty campaign with seed 0 and a single-trial policy.
    pub fn named(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            seed: 0,
            trials: TrialPolicy::Fixed(1),
            groups: Vec::new(),
        }
    }

    /// Sets the default scenario seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the default trial policy.
    pub fn trials(mut self, trials: TrialPolicy) -> Self {
        self.trials = trials;
        self
    }

    /// Appends a sweep group.
    pub fn group(mut self, group: SweepGroup) -> Self {
        self.groups.push(group);
        self
    }

    /// Validates the campaign without expanding it.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] on an empty campaign, an empty axis, a custom
    /// component on an axis, or a degenerate trial policy.
    pub fn validate(&self) -> Result<()> {
        if self.groups.is_empty() {
            return Err(CampaignError::spec(format!(
                "campaign {:?} has no sweep groups",
                self.name
            )));
        }
        self.trials.validate()?;
        for (i, group) in self.groups.iter().enumerate() {
            group.validate(i)?;
        }
        Ok(())
    }

    /// Expands the campaign into its cells: groups in declaration order, and
    /// within a group the product in topology-major order (topology →
    /// algorithm → adversary → problem, last axis fastest). Duplicate cells
    /// (identical content keys) are dropped, keeping the first occurrence, so
    /// the expansion is duplicate-free and order-stable: the same spec always
    /// yields the same cell list.
    ///
    /// # Errors
    ///
    /// Everything [`CampaignSpec::validate`] rejects, plus round-budget rules
    /// that cannot be resolved against a topology.
    pub fn expand(&self) -> Result<Vec<CellSpec>> {
        self.validate()?;
        let mut cells = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for group in &self.groups {
            let seed = group.seed.unwrap_or(self.seed);
            let trials = group.trials.unwrap_or(self.trials);
            for topology in &group.topologies {
                let max_rounds = group.rounds.resolve(topology)?;
                for algorithm in &group.algorithms {
                    for adversary in &group.adversaries {
                        for problem in &group.problems {
                            // A curve needs per-round collision counts:
                            // promote the history-free mode to
                            // CollisionsOnly (never to Full).
                            let record_mode =
                                if group.curve && !group.record_mode.records_collisions() {
                                    RecordMode::CollisionsOnly
                                } else {
                                    group.record_mode
                                };
                            let cell = CellSpec {
                                scenario: ScenarioSpec {
                                    topology: topology.clone(),
                                    algorithm: algorithm.clone(),
                                    adversary: adversary.clone(),
                                    problem: problem.clone(),
                                    seed,
                                    max_rounds,
                                    collision_detection: group.collision_detection,
                                },
                                trials,
                                record_mode,
                                curve: group.curve,
                            };
                            if seen.insert(cell.key()) {
                                cells.push(cell);
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }
}

impl Serialize for CampaignSpec {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("name".into(), self.name.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("trials".into(), self.trials.to_value()),
            ("groups".into(), self.groups.to_value()),
        ])
    }
}

impl Deserialize for CampaignSpec {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::new(format!("CampaignSpec is missing {name:?}")))
        };
        Ok(CampaignSpec {
            name: String::from_value(field("name")?)?,
            seed: match value.get("seed") {
                Some(v) => u64::from_value(v)?,
                None => 0,
            },
            trials: match value.get("trials") {
                Some(v) => TrialPolicy::from_value(v)?,
                None => TrialPolicy::Fixed(1),
            },
            groups: Vec::from_value(field("groups")?)?,
        })
    }
}

impl fmt::Display for CampaignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "campaign {:?} (seed {}, {} groups)",
            self.name,
            self.seed,
            self.groups.len()
        )
    }
}

/// One expanded unit of work: a scenario plus the trial policy it runs under.
///
/// The cell's [`key`](CellSpec::key) is a content hash of its canonical JSON
/// serialization, so two cells are "the same measurement" exactly when their
/// declarative content matches — across processes, restarts, and reorderings
/// of the surrounding campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// The scenario to measure.
    pub scenario: ScenarioSpec,
    /// How many trials to run.
    pub trials: TrialPolicy,
    /// How much of each trial execution the engine retains. **Not part of
    /// the cell's identity**: measurements are identical under every mode
    /// (pinned by the equivalence tests), so two cells differing only in
    /// record mode are the same measurement and share a store record.
    pub record_mode: RecordMode,
    /// Whether the cell streams a contention-over-time curve into its
    /// measurement. Also **not part of the cell's identity** (the scalar
    /// statistics are unchanged), and omitted from the serialized form when
    /// off so pre-curve stores keep their exact bytes.
    pub curve: bool,
}

impl CellSpec {
    /// The content-hash key of this cell: FNV-1a 64 over the canonical
    /// (compact) JSON serialization of its *identity* — the scenario and the
    /// trial policy, deliberately excluding the record mode (see the field
    /// documentation) — hex-encoded.
    ///
    /// Stable across processes — the serialization is deterministic (ordered
    /// maps, shortest-round-trip floats) and the hash has no random state.
    pub fn key(&self) -> String {
        /// The slice of a [`CellSpec`] that defines "the same measurement".
        struct CellIdentity<'a>(&'a CellSpec);
        impl Serialize for CellIdentity<'_> {
            fn to_value(&self) -> Value {
                Value::Map(vec![
                    ("scenario".into(), self.0.scenario.to_value()),
                    ("trials".into(), self.0.trials.to_value()),
                ])
            }
        }
        let canonical =
            // lint: allow(D4) -- identity serialization is infallible: every
            // field is a plain spec value (pinned by the serde round-trip tests)
            serde_json::to_string(&CellIdentity(self)).expect("cell specs always serialize");
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in canonical.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        format!("{hash:016x}")
    }

    /// A short human-readable label for errors and progress lines.
    pub fn label(&self) -> String {
        self.scenario.to_string()
    }
}

impl Serialize for CellSpec {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("scenario".into(), self.scenario.to_value()),
            ("trials".into(), self.trials.to_value()),
            ("record_mode".into(), self.record_mode.to_value()),
        ];
        if self.curve {
            fields.push(("curve".into(), self.curve.to_value()));
        }
        Value::Map(fields)
    }
}

impl Deserialize for CellSpec {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::new(format!("CellSpec is missing {name:?}")))
        };
        // Legacy `"batch"` and `"backend"` keys, from stores written while
        // batching and the graph layout were knobs, are ignored whatever
        // their value, so those lines load as-is.
        Ok(CellSpec {
            scenario: ScenarioSpec::from_value(field("scenario")?)?,
            trials: TrialPolicy::from_value(field("trials")?)?,
            // Absent in stores written before record modes existed.
            record_mode: match value.get("record_mode") {
                Some(v) => RecordMode::from_value(v)?,
                None => RecordMode::None,
            },
            // Absent in stores written before curves existed.
            curve: match value.get("curve") {
                Some(v) => bool::from_value(v)?,
                None => false,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dradio_core::algorithms::GlobalAlgorithm;

    fn sample_campaign() -> CampaignSpec {
        CampaignSpec::named("sample")
            .seed(7)
            .trials(TrialPolicy::Fixed(3))
            .group(SweepGroup::product(
                vec![
                    TopologySpec::Clique { n: 8 },
                    TopologySpec::DualClique { n: 8 },
                ],
                vec![
                    GlobalAlgorithm::Bgi.into(),
                    GlobalAlgorithm::Permuted.into(),
                ],
                vec![AdversarySpec::StaticNone, AdversarySpec::Iid { p: 0.5 }],
                vec![ProblemSpec::GlobalFrom(0)],
            ))
    }

    #[test]
    fn expansion_is_the_full_product_in_declared_order() {
        let cells = sample_campaign().expand().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2);
        // Topology-major: the first four cells share the first topology.
        for cell in &cells[..4] {
            assert_eq!(cell.scenario.topology, TopologySpec::Clique { n: 8 });
        }
        // Problem/adversary/algorithm vary fastest-to-slowest.
        assert_eq!(cells[0].scenario.adversary, AdversarySpec::StaticNone);
        assert_eq!(cells[1].scenario.adversary, AdversarySpec::Iid { p: 0.5 });
        assert_eq!(cells[0].scenario.seed, 7);
        assert_eq!(cells[0].trials, TrialPolicy::Fixed(3));
    }

    #[test]
    fn duplicate_cells_are_dropped_keeping_the_first() {
        let base = sample_campaign();
        let doubled = base.clone().group(base.groups[0].clone());
        let cells = doubled.expand().unwrap();
        assert_eq!(cells.len(), base.expand().unwrap().len());
    }

    #[test]
    fn group_overrides_beat_campaign_defaults() {
        let campaign = CampaignSpec::named("overrides").seed(1).group(
            SweepGroup::cell(
                TopologySpec::Clique { n: 8 },
                GlobalAlgorithm::Bgi,
                AdversarySpec::StaticNone,
                ProblemSpec::GlobalFrom(0),
            )
            .seed(99)
            .trials(TrialPolicy::Fixed(5))
            .rounds(RoundsRule::Fixed(1234)),
        );
        let cells = campaign.expand().unwrap();
        assert_eq!(cells[0].scenario.seed, 99);
        assert_eq!(cells[0].trials, TrialPolicy::Fixed(5));
        assert_eq!(cells[0].scenario.max_rounds, Some(1234));
    }

    #[test]
    fn per_node_budgets_scale_with_the_spec_size() {
        let rule = RoundsRule::PerNode {
            per_node: 200,
            base: 100,
            min_nodes: 16,
        };
        assert_eq!(
            rule.resolve(&TopologySpec::Clique { n: 8 }).unwrap(),
            Some(200 * 16 + 100)
        );
        assert_eq!(
            rule.resolve(&TopologySpec::Bracelet { k: 4 }).unwrap(),
            Some(200 * 32 + 100)
        );
        assert!(rule
            .resolve(&TopologySpec::Custom { name: "x".into() })
            .is_err());
    }

    #[test]
    fn misconfigurations_surface_as_spec_errors() {
        // Empty campaign.
        assert!(CampaignSpec::named("empty").expand().is_err());
        // Zero trials — the error-propagating replacement for the old
        // panicking measure path.
        let zero = sample_campaign().trials(TrialPolicy::Fixed(0));
        assert!(matches!(
            zero.expand().unwrap_err(),
            CampaignError::Spec { .. }
        ));
        // Degenerate adaptive policies.
        for bad in [
            TrialPolicy::Adaptive {
                min: 0,
                max: 4,
                relative_width: 0.1,
                stop: StopRule::MeanCostCi,
            },
            TrialPolicy::Adaptive {
                min: 4,
                max: 2,
                relative_width: 0.1,
                stop: StopRule::MeanCostCi,
            },
            TrialPolicy::Adaptive {
                min: 1,
                max: 4,
                relative_width: 0.0,
                stop: StopRule::MeanCostCi,
            },
            TrialPolicy::Adaptive {
                min: 1,
                max: 4,
                relative_width: f64::NAN,
                stop: StopRule::MeanCostCi,
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
        // Empty axis.
        let empty_axis = CampaignSpec::named("axis").group(SweepGroup::product(
            vec![],
            vec![GlobalAlgorithm::Bgi.into()],
            vec![AdversarySpec::StaticNone],
            vec![ProblemSpec::GlobalFrom(0)],
        ));
        assert!(empty_axis.expand().is_err());
        // Custom components cannot be swept.
        let custom = CampaignSpec::named("custom").group(SweepGroup::cell(
            TopologySpec::Custom { name: "x".into() },
            GlobalAlgorithm::Bgi,
            AdversarySpec::StaticNone,
            ProblemSpec::GlobalFrom(0),
        ));
        assert!(custom.expand().is_err());
    }

    #[test]
    fn record_mode_is_not_part_of_cell_identity() {
        let fast = sample_campaign();
        let mut recorded = sample_campaign();
        recorded.groups[0].record_mode = RecordMode::Full;
        let fast_cells = fast.expand().unwrap();
        let recorded_cells = recorded.expand().unwrap();
        for (a, b) in fast_cells.iter().zip(&recorded_cells) {
            assert_eq!(a.record_mode, RecordMode::None);
            assert_eq!(b.record_mode, RecordMode::Full);
            assert_eq!(a.key(), b.key(), "record mode must not change the key");
        }
        // And the serialized cell still round-trips the mode.
        let json = serde_json::to_string(&recorded_cells[0]).unwrap();
        let back: CellSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.record_mode, RecordMode::Full);
        // Stores written before record modes existed deserialize to the
        // default fast mode.
        let legacy = serde_json::to_string(&fast_cells[0])
            .unwrap()
            .replace(",\"record_mode\":\"None\"", "");
        let back: CellSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.record_mode, RecordMode::None);
        assert_eq!(back.key(), fast_cells[0].key());
    }

    #[test]
    fn default_stop_rule_keeps_the_legacy_policy_bytes() {
        // The exact serialization every pre-StopRule spec produced — cell
        // keys hash it, so it must never change for the default rule.
        let legacy = TrialPolicy::Adaptive {
            min: 2,
            max: 8,
            relative_width: 0.2,
            stop: StopRule::MeanCostCi,
        };
        assert_eq!(
            serde_json::to_string(&legacy).unwrap(),
            "{\"Adaptive\":{\"min\":2,\"max\":8,\"relative_width\":0.2}}"
        );
        assert_eq!(
            serde_json::to_string(&TrialPolicy::Fixed(3)).unwrap(),
            "{\"Fixed\":3}"
        );
        // A non-default rule appends the stop key...
        let completion = TrialPolicy::Adaptive {
            min: 2,
            max: 8,
            relative_width: 0.2,
            stop: StopRule::CompletionCi,
        };
        assert_eq!(
            serde_json::to_string(&completion).unwrap(),
            "{\"Adaptive\":{\"min\":2,\"max\":8,\"relative_width\":0.2,\"stop\":\"CompletionCi\"}}"
        );
        // ...and every shape round-trips, including legacy values without
        // the key.
        for policy in [legacy, completion, TrialPolicy::Fixed(3)] {
            let json = serde_json::to_string(&policy).unwrap();
            let back: TrialPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, policy);
        }
        let old: TrialPolicy =
            serde_json::from_str("{\"Adaptive\":{\"min\":1,\"max\":4,\"relative_width\":0.5}}")
                .unwrap();
        assert_eq!(
            old,
            TrialPolicy::Adaptive {
                min: 1,
                max: 4,
                relative_width: 0.5,
                stop: StopRule::MeanCostCi,
            }
        );
    }

    #[test]
    fn completion_stop_rules_change_cell_keys_but_defaults_do_not() {
        let base = sample_campaign().trials(TrialPolicy::Adaptive {
            min: 2,
            max: 8,
            relative_width: 0.2,
            stop: StopRule::MeanCostCi,
        });
        let completion = sample_campaign().trials(TrialPolicy::Adaptive {
            min: 2,
            max: 8,
            relative_width: 0.2,
            stop: StopRule::CompletionCi,
        });
        for (a, b) in base
            .expand()
            .unwrap()
            .iter()
            .zip(&completion.expand().unwrap())
        {
            assert_ne!(
                a.key(),
                b.key(),
                "a different stop rule allocates different trials — a \
                 different measurement"
            );
        }
        // Degenerate completion widths are rejected up front.
        assert!(TrialPolicy::Adaptive {
            min: 1,
            max: 4,
            relative_width: 1.0,
            stop: StopRule::CompletionCi,
        }
        .validate()
        .is_err());
        assert!(TrialPolicy::Adaptive {
            min: 1,
            max: 4,
            relative_width: 1.0,
            stop: StopRule::MeanCostCi,
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn curve_groups_promote_history_free_cells_to_collisions_only() {
        let mut campaign = sample_campaign();
        campaign.groups[0].curve = true;
        let cells = campaign.expand().unwrap();
        for cell in &cells {
            assert!(cell.curve);
            assert_eq!(
                cell.record_mode,
                RecordMode::CollisionsOnly,
                "a curve needs per-round counts — and must not promote to Full"
            );
        }
        // An explicit Full mode is left alone; the builder sets the flag.
        let mut full = sample_campaign();
        full.groups[0] = full.groups[0]
            .clone()
            .curve(true)
            .record_mode(RecordMode::Full);
        for cell in &full.expand().unwrap() {
            assert_eq!(cell.record_mode, RecordMode::Full);
        }
        // Like record mode, the curve flag is not part of the identity...
        let plain_cells = sample_campaign().expand().unwrap();
        for (a, b) in plain_cells.iter().zip(&cells) {
            assert_eq!(a.key(), b.key(), "curve must not change the key");
        }
        // ...and it round-trips through cell serde, with absence meaning
        // off (pre-curve stores).
        let json = serde_json::to_string(&cells[0]).unwrap();
        assert!(json.contains("\"curve\":true"));
        let back: CellSpec = serde_json::from_str(&json).unwrap();
        assert!(back.curve);
        let plain_json = serde_json::to_string(&plain_cells[0]).unwrap();
        assert!(
            !plain_json.contains("curve"),
            "curve-less cells keep the pre-curve bytes: {plain_json}"
        );
        let back: CellSpec = serde_json::from_str(&plain_json).unwrap();
        assert!(!back.curve);
    }

    #[test]
    fn batch_flag_stays_off_the_wire_and_out_of_keys_when_false() {
        // Batching is the runner's decision: a legacy `"batch"` key, true or
        // false, parses with its value ignored and is never written back.
        let plain = sample_campaign();
        let plain_json = serde_json::to_string(&plain).unwrap();
        assert!(!plain_json.contains("batch"), "{plain_json}");
        let plain_cells = plain.expand().unwrap();
        let plain_store = crate::CampaignRunner::new(&plain).run_in_memory().unwrap();
        let cell_json = serde_json::to_string(&plain_cells[0]).unwrap();
        assert!(!cell_json.contains("batch"), "{cell_json}");
        for flag in ["true", "false"] {
            let legacy_json = plain_json.replace(
                "\"curve\":false",
                &format!("\"curve\":false,\"batch\":{flag}"),
            );
            assert!(legacy_json.contains("\"batch\""));
            let legacy: CampaignSpec = serde_json::from_str(&legacy_json).unwrap();
            assert_eq!(legacy, plain);
            assert_eq!(serde_json::to_string(&legacy).unwrap(), plain_json);
            // Same cells, same keys, same store bytes as the plain group.
            let cells = legacy.expand().unwrap();
            assert_eq!(cells, plain_cells);
            for (a, b) in cells.iter().zip(&plain_cells) {
                assert_eq!(a.key(), b.key());
            }
            let store = crate::CampaignRunner::new(&legacy).run_in_memory().unwrap();
            assert_eq!(store.len(), plain_store.len());
            for (a, b) in store.records().iter().zip(plain_store.records()) {
                assert_eq!(
                    serde_json::to_string(a).unwrap(),
                    serde_json::to_string(b).unwrap()
                );
            }
            // A stored cell line carrying the flag loads as the plain cell.
            let legacy_cell = cell_json.replace(
                "\"record_mode\":\"None\"",
                &format!("\"record_mode\":\"None\",\"batch\":{flag}"),
            );
            assert!(legacy_cell.contains("\"batch\""));
            let back: CellSpec = serde_json::from_str(&legacy_cell).unwrap();
            assert_eq!(back, plain_cells[0]);
            assert_eq!(back.key(), plain_cells[0].key());
            assert_eq!(serde_json::to_string(&back).unwrap(), cell_json);
        }
    }

    #[test]
    fn backend_knob_stays_off_the_wire_and_out_of_keys_when_auto() {
        // The layout is the dual graph's decision: a legacy `"backend"` key,
        // whatever its value, parses with the value ignored and is never
        // written back.
        let plain = sample_campaign();
        let plain_json = serde_json::to_string(&plain).unwrap();
        assert!(!plain_json.contains("backend"), "{plain_json}");
        let plain_cells = plain.expand().unwrap();
        let cell_json = serde_json::to_string(&plain_cells[0]).unwrap();
        assert!(!cell_json.contains("backend"), "{cell_json}");
        for value in [
            r#""Auto""#,
            r#""Dense""#,
            r#""Csr""#,
            r#""Turbo""#,
            "7",
            "null",
            r#"{"Csr":[1]}"#,
        ] {
            let legacy_json = plain_json.replace(
                "\"curve\":false",
                &format!("\"curve\":false,\"backend\":{value}"),
            );
            assert!(legacy_json.contains("\"backend\""));
            let legacy: CampaignSpec = serde_json::from_str(&legacy_json).unwrap();
            assert_eq!(legacy, plain, "{value}");
            assert_eq!(serde_json::to_string(&legacy).unwrap(), plain_json);
            // Same cells, same keys as the plain group.
            let cells = legacy.expand().unwrap();
            assert_eq!(cells, plain_cells);
            for (a, b) in cells.iter().zip(&plain_cells) {
                assert_eq!(a.key(), b.key());
            }
            // A stored cell line carrying the key loads as the plain cell.
            let legacy_cell = cell_json.replace(
                "\"record_mode\":\"None\"",
                &format!("\"record_mode\":\"None\",\"backend\":{value}"),
            );
            assert!(legacy_cell.contains("\"backend\""));
            let back: CellSpec = serde_json::from_str(&legacy_cell).unwrap();
            assert_eq!(back, plain_cells[0]);
            assert_eq!(back.key(), plain_cells[0].key());
            assert_eq!(serde_json::to_string(&back).unwrap(), cell_json);
        }
    }

    #[test]
    fn cell_keys_depend_only_on_content() {
        let cells = sample_campaign().expand().unwrap();
        let again = sample_campaign().expand().unwrap();
        for (a, b) in cells.iter().zip(&again) {
            assert_eq!(a.key(), b.key());
        }
        let mut keys: Vec<String> = cells.iter().map(CellSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "distinct cells hash distinctly");
    }

    #[test]
    fn campaign_spec_serde_round_trips() {
        let campaign = sample_campaign().group(
            SweepGroup::cell(
                TopologySpec::Bracelet { k: 3 },
                dradio_core::algorithms::LocalAlgorithm::StaticDecay,
                AdversarySpec::BraceletAttack,
                ProblemSpec::LocalHeadsA,
            )
            .trials(TrialPolicy::Adaptive {
                min: 2,
                max: 16,
                relative_width: 0.25,
                stop: StopRule::MeanCostCi,
            })
            .rounds(RoundsRule::PerNode {
                per_node: 40,
                base: 300,
                min_nodes: 0,
            }),
        );
        let json = serde_json::to_string_pretty(&campaign).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(campaign, back);
        // Expansion of the round-tripped spec matches cell for cell.
        let a = campaign.expand().unwrap();
        let b = back.expand().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_compact() {
        let shown = sample_campaign().to_string();
        assert!(shown.contains("sample"));
        assert!(shown.contains("1 groups"));
    }
}
