//! Static campaign-spec validation: `repro campaign check`.
//!
//! Everything here is computable from the spec alone — no cell is executed,
//! no topology is built. The check catches the mistakes that otherwise only
//! surface hours into a sweep:
//!
//! * duplicate cell keys (within a group's product, or across groups) —
//!   expansion silently keeps the first, so a duplicated cell is almost
//!   always a spec typo;
//! * effectively-fixed adaptive policies (`min == max`), which pay the
//!   adaptive bookkeeping without ever adapting;
//! * **unreachable** completion-targeted stop rules: a Wilson half-width
//!   target tighter than the interval can mathematically reach at `max`
//!   trials means the rule always runs to `max` — the precision request is
//!   a no-op;
//! * a per-group and total budget estimate (cells, worst-case trials,
//!   worst-case simulated rounds), so the cost of a sweep is visible before
//!   it starts.

use std::fmt;

use dradio_scenario::{Completion, GraphBackend};

use crate::error::Result;
use crate::spec::{CampaignSpec, CellSpec, TrialPolicy};

/// The worst-case budget of one sweep group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupBudget {
    /// Group position in the spec.
    pub index: usize,
    /// Distinct cells the group expands to (duplicates within the group
    /// already removed).
    pub cells: usize,
    /// Worst-case trials across the group (`max` for adaptive policies).
    pub max_trials: usize,
    /// Worst-case simulated rounds across the group: Σ over cells of
    /// `max_trials · round_budget`. `None` when some round budget is not
    /// derivable from the spec (custom-sized topology under a default rule).
    pub max_rounds: Option<u64>,
    /// The largest estimated topology footprint among the group's cells:
    /// the layout the automatic rule picks for that cell, and the estimated
    /// bytes for both network layers
    /// ([`dradio_scenario::TopologySpec::memory_estimate`]). `None` when no
    /// cell's size is derivable from its spec.
    pub peak_topology: Option<(GraphBackend, u64)>,
}

/// A non-fatal spec smell: the campaign runs, but not the way the author
/// probably meant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckWarning {
    /// Group the warning concerns (`None` for campaign-wide warnings).
    pub group: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

/// The result of statically checking a campaign spec.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Campaign name.
    pub name: String,
    /// Per-group budgets, in declaration order.
    pub groups: Vec<GroupBudget>,
    /// Distinct cells across the whole campaign.
    pub cells: usize,
    /// Spec smells (duplicates, unreachable targets, degenerate policies).
    pub warnings: Vec<CheckWarning>,
}

impl CheckReport {
    /// Whether the spec is clean (valid and without warnings).
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty()
    }
}

/// Statically checks `spec` (see the module docs for the checklist).
///
/// # Errors
///
/// [`crate::CampaignError::Spec`] for everything expansion itself rejects:
/// empty axes, zero-trial policies, degenerate widths, unresolvable round
/// budgets. Warnings, by contrast, are returned in the report.
pub fn check(spec: &CampaignSpec) -> Result<CheckReport> {
    check_with_budget(spec, None)
}

/// [`check`] with a per-cell topology memory budget in bytes: any cell whose
/// estimated topology footprint
/// ([`dradio_scenario::TopologySpec::memory_estimate`], in the layout the
/// dual graph will pick) exceeds `mem_budget` draws a warning. The layout is
/// not a spec knob, so the warning names the topology to shrink and nothing
/// to force.
///
/// # Errors
///
/// Exactly [`check`]'s.
pub fn check_with_budget(spec: &CampaignSpec, mem_budget: Option<u64>) -> Result<CheckReport> {
    // Expansion validates the spec and is the source of truth for keys.
    let all_cells = spec.expand()?;
    let mut warnings = Vec::new();
    let mut groups = Vec::new();

    // Re-expand each group in isolation to attribute keys and budgets.
    let mut seen: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for (index, group) in spec.groups.iter().enumerate() {
        let mut sub = CampaignSpec::named(&spec.name);
        sub.seed = spec.seed;
        sub.trials = spec.trials;
        sub.groups = vec![group.clone()];
        let cells = sub.expand()?;

        let product = group.topologies.len()
            * group.algorithms.len()
            * group.adversaries.len()
            * group.problems.len();
        if cells.len() < product {
            warnings.push(CheckWarning {
                group: Some(index),
                message: format!(
                    "group {index} expands to {} distinct cells from a product of {product}; \
                     {} duplicate cell(s) inside the group collapse silently",
                    cells.len(),
                    product - cells.len()
                ),
            });
        }
        for cell in &cells {
            if let Some(first) = seen.get(&cell.key()) {
                if *first != index {
                    warnings.push(CheckWarning {
                        group: Some(index),
                        message: format!(
                            "group {index} repeats cell {} ({}) already produced by group \
                             {first}; only the first copy is measured",
                            cell.key(),
                            cell.label()
                        ),
                    });
                }
            } else {
                seen.insert(cell.key(), index);
            }
        }

        let policy = group.trials.unwrap_or(spec.trials);
        check_policy(index, policy, &mut warnings);

        let max_trials = match policy {
            TrialPolicy::Fixed(n) => n,
            TrialPolicy::Adaptive { max, .. } => max,
        };
        // Worst-case rounds: every trial of every cell runs to its budget.
        let mut rounds_total: Option<u64> = Some(0);
        for cell in &cells {
            let budget = match cell.scenario.max_rounds {
                Some(rounds) => Some(rounds as u64),
                None => cell
                    .scenario
                    .topology
                    .node_count()
                    .map(|n| 200 * n as u64 + 2_000),
            };
            rounds_total = match (rounds_total, budget) {
                (Some(total), Some(b)) => Some(total.saturating_add(b * max_trials as u64)),
                _ => None,
            };
        }
        // Peak topology footprint across the group's cells, and the budget
        // warning for the worst offender (one warning per group, not per
        // cell — a sweep over 50 oversized sizes is one mistake, not 50).
        let mut peak: Option<(GraphBackend, u64)> = None;
        let mut worst_over: Option<(&CellSpec, GraphBackend, u64)> = None;
        for cell in &cells {
            let Some((backend, bytes)) = cell.scenario.topology.memory_estimate() else {
                continue;
            };
            if peak.is_none_or(|(_, b)| bytes > b) {
                peak = Some((backend, bytes));
            }
            if mem_budget.is_some_and(|budget| bytes > budget)
                && worst_over.is_none_or(|(_, _, b)| bytes > b)
            {
                worst_over = Some((cell, backend, bytes));
            }
        }
        if let (Some(budget), Some((cell, backend, bytes))) = (mem_budget, worst_over) {
            warnings.push(CheckWarning {
                group: Some(index),
                message: format!(
                    "group {index}: topology {} needs ~{} as {backend} — over the {} \
                     memory budget",
                    cell.scenario.topology.label(),
                    format_bytes(bytes),
                    format_bytes(budget),
                ),
            });
        }
        groups.push(GroupBudget {
            index,
            cells: cells.len(),
            max_trials,
            max_rounds: rounds_total,
            peak_topology: peak,
        });
    }

    Ok(CheckReport {
        name: spec.name.clone(),
        groups,
        cells: all_cells.len(),
        warnings,
    })
}

/// Policy-level smells: degenerate adaptivity and unreachable stop targets.
fn check_policy(index: usize, policy: TrialPolicy, warnings: &mut Vec<CheckWarning>) {
    let TrialPolicy::Adaptive {
        min,
        max,
        relative_width,
        stop,
    } = policy
    else {
        return;
    };
    if min == max {
        warnings.push(CheckWarning {
            group: Some(index),
            message: format!(
                "group {index}: adaptive policy has min == max == {max}; it can never \
                 adapt — a Fixed({max}) policy says the same thing honestly"
            ),
        });
    }
    if stop == crate::spec::StopRule::CompletionCi {
        // The Wilson half-width at n trials is minimized at the boundary
        // rates (all completed / none completed); if even that floor exceeds
        // the requested width, the stop target is unreachable and the policy
        // degenerates to "always run max trials".
        let floor = Completion {
            completed: max,
            trials: max,
        }
        .wilson_half_width();
        if relative_width < floor {
            warnings.push(CheckWarning {
                group: Some(index),
                message: format!(
                    "group {index}: completion-CI target ±{relative_width} is unreachable — \
                     at max {max} trials the tightest achievable Wilson half-width is \
                     ±{floor:.4}; the policy will always run all {max} trials (raise max to \
                     at least {} or relax the width)",
                    trials_for_width(relative_width)
                ),
            });
        }
    }
}

/// The smallest trial count whose boundary-rate Wilson half-width fits under
/// `width` — the "raise max to at least this" hint. Derived by doubling from
/// 1 (the adaptive runner also doubles, so the hint lands on a count the
/// policy can actually reach).
fn trials_for_width(width: f64) -> usize {
    let mut n = 1usize;
    while n < 1 << 30 {
        let floor = Completion {
            completed: n,
            trials: n,
        }
        .wilson_half_width();
        if floor <= width {
            return n;
        }
        n *= 2;
    }
    n
}

/// Formats a byte count with a binary-unit suffix (B, KiB, MiB, GiB, TiB),
/// one decimal place — the shape budget banners and check reports print.
pub fn format_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "campaign {:?}: {} distinct cells", self.name, self.cells)?;
        for g in &self.groups {
            let rounds = match g.max_rounds {
                Some(r) => format!("<= {r} simulated rounds"),
                None => String::from("round budget not derivable from the spec"),
            };
            let memory = match g.peak_topology {
                Some((backend, bytes)) => {
                    format!(", peak topology ~{} ({backend})", format_bytes(bytes))
                }
                None => String::new(),
            };
            writeln!(
                f,
                "  group {}: {} cells x up to {} trials, {rounds}{memory}",
                g.index, g.cells, g.max_trials
            )?;
        }
        if self.warnings.is_empty() {
            writeln!(f, "no warnings")?;
        } else {
            for w in &self.warnings {
                writeln!(f, "warning: {}", w.message)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{StopRule, SweepGroup};
    use dradio_scenario::{AdversarySpec, AlgorithmSpec, ProblemSpec, TopologySpec};

    fn cell_group(n: usize) -> SweepGroup {
        SweepGroup::cell(
            TopologySpec::Clique { n },
            AlgorithmSpec::Global(dradio_core::GlobalAlgorithm::Bgi),
            AdversarySpec::StaticNone,
            ProblemSpec::GlobalFrom(0),
        )
    }

    fn campaign() -> CampaignSpec {
        let mut spec = CampaignSpec::named("check-test");
        spec.trials = TrialPolicy::Fixed(4);
        spec.groups.push(cell_group(8));
        spec
    }

    #[test]
    fn a_clean_spec_reports_budgets_and_no_warnings() {
        let report = check(&campaign()).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.cells, 1);
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].max_trials, 4);
        // One cell, 4 trials, default budget 200·8 + 2000.
        assert_eq!(report.groups[0].max_rounds, Some(4 * (200 * 8 + 2_000)));
    }

    #[test]
    fn duplicates_within_and_across_groups_are_warned() {
        let mut spec = campaign();
        // Same cell again in a second group.
        spec.groups.push(cell_group(8));
        // And a group whose product repeats an axis entry.
        let mut doubled = cell_group(16);
        doubled.problems.push(ProblemSpec::GlobalFrom(0));
        spec.groups.push(doubled);
        let report = check(&spec).unwrap();
        assert_eq!(report.cells, 2, "duplicates collapse in the real expansion");
        let messages: Vec<&str> = report.warnings.iter().map(|w| w.message.as_str()).collect();
        assert!(
            messages
                .iter()
                .any(|m| m.contains("already produced by group 0")),
            "{messages:?}"
        );
        assert!(
            messages.iter().any(|m| m.contains("collapse silently")),
            "{messages:?}"
        );
    }

    #[test]
    fn degenerate_and_unreachable_adaptive_policies_are_warned() {
        let mut spec = campaign();
        spec.trials = TrialPolicy::Adaptive {
            min: 8,
            max: 8,
            relative_width: 0.05,
            stop: StopRule::MeanCostCi,
        };
        let report = check(&spec).unwrap();
        assert!(report
            .warnings
            .iter()
            .any(|w| w.message.contains("min == max")));

        // ±0.01 needs far more than 16 trials: the Wilson floor at n=16 is
        // ~0.1, so the target is unreachable and the hint must say how many
        // trials would suffice.
        spec.trials = TrialPolicy::Adaptive {
            min: 4,
            max: 16,
            relative_width: 0.01,
            stop: StopRule::CompletionCi,
        };
        let report = check(&spec).unwrap();
        let unreachable = report
            .warnings
            .iter()
            .find(|w| w.message.contains("unreachable"))
            .expect("unreachable target must be warned");
        let hint = trials_for_width(0.01);
        assert!(
            unreachable.message.contains(&format!("at least {hint}")),
            "{}",
            unreachable.message
        );
        // The hint is self-consistent: that count actually reaches the width.
        let floor = Completion {
            completed: hint,
            trials: hint,
        }
        .wilson_half_width();
        assert!(floor <= 0.01 && hint > 16);

        // A reachable completion target stays quiet.
        spec.trials = TrialPolicy::Adaptive {
            min: 4,
            max: 4096,
            relative_width: 0.1,
            stop: StopRule::CompletionCi,
        };
        let report = check(&spec).unwrap();
        assert!(
            !report
                .warnings
                .iter()
                .any(|w| w.message.contains("unreachable")),
            "{:?}",
            report.warnings
        );
    }

    #[test]
    fn memory_budgets_warn_on_oversized_dense_cells() {
        let mut spec = CampaignSpec::named("mem-budget");
        spec.trials = TrialPolicy::Fixed(1);
        let cell = |topology| {
            SweepGroup::cell(
                topology,
                AlgorithmSpec::Global(dradio_core::GlobalAlgorithm::Bgi),
                AdversarySpec::StaticNone,
                ProblemSpec::GlobalFrom(0),
            )
            .rounds(crate::spec::RoundsRule::Fixed(10))
        };
        // A million-node grid is priced in the CSR layout the dual graph
        // will pick for it, which fits.
        let grid = TopologySpec::Grid {
            cols: 1000,
            rows: 1000,
        };
        spec.groups.push(cell(grid.clone()));
        let budget = 1u64 << 30;
        let report = check_with_budget(&spec, Some(budget)).unwrap();
        assert!(report.is_clean(), "{report}");
        let (backend, bytes) = report.groups[0].peak_topology.unwrap();
        assert_eq!((backend, bytes), grid.memory_estimate().unwrap());
        assert_eq!(backend, GraphBackend::Csr);
        assert!(bytes < budget, "CSR grid estimate must fit: {bytes}");
        assert!(report.to_string().contains("peak topology"), "{report}");
        assert!(report.to_string().contains("(csr)"), "{report}");

        // A 10 000-node dual clique is dense under the automatic rule, and
        // its rows alone blow the budget: the warning prices the dense
        // layout and suggests forcing nothing.
        let clique = TopologySpec::DualClique { n: 10_000 };
        spec.groups = vec![cell(grid), cell(clique.clone())];
        let report = check_with_budget(&spec, Some(budget)).unwrap();
        let (backend, bytes) = report.groups[1].peak_topology.unwrap();
        assert_eq!((backend, bytes), clique.memory_estimate().unwrap());
        assert_eq!(backend, GraphBackend::Dense);
        assert!(bytes > budget, "dense estimate is over budget: {bytes}");
        assert_eq!(report.warnings.len(), 1, "{report}");
        let warning = &report.warnings[0];
        assert_eq!(warning.group, Some(1));
        assert!(
            warning.message.contains("memory budget"),
            "{}",
            warning.message
        );
        assert!(warning.message.contains("as dense"), "{}", warning.message);
        assert!(!warning.message.contains("forcing"), "{}", warning.message);

        // Without a budget the same spec checks clean — estimates are
        // informational unless the caller sets a ceiling.
        let report = check(&spec).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn expansion_errors_propagate_as_errors_not_warnings() {
        let mut spec = campaign();
        spec.trials = TrialPolicy::Fixed(0);
        assert!(check(&spec).is_err());
    }

    #[test]
    fn display_summarizes_groups_and_warnings() {
        let report = check(&campaign()).unwrap();
        let text = report.to_string();
        assert!(text.contains("1 distinct cells"));
        assert!(text.contains("group 0: 1 cells x up to 4 trials"));
        assert!(text.contains("no warnings"));
    }
}
