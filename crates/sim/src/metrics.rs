//! Execution metrics.

use std::fmt;

/// Aggregate counters collected during an execution.
///
/// These complement the full [`History`](crate::History): experiments that
/// only need totals (energy proxies, contention levels) can read them without
/// walking the per-round records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Metrics {
    /// Rounds executed.
    pub rounds: usize,
    /// Total transmissions over all nodes and rounds.
    pub transmissions: usize,
    /// Total successful receptions.
    pub deliveries: usize,
    /// Listener-rounds in which two or more neighbors transmitted (a
    /// collision, observed as silence by the node unless collision detection
    /// is enabled).
    pub collisions: usize,
    /// Listener-rounds in which no neighbor transmitted.
    pub idle_listens: usize,
    /// Edges proposed by the link process that were not dynamic edges of the
    /// network and were therefore ignored by the engine.
    pub rejected_link_edges: usize,
}

impl Metrics {
    /// Average transmissions per executed round.
    pub fn transmissions_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.transmissions as f64 / self.rounds as f64
        }
    }

    /// Fraction of listener-rounds with a collision, out of all
    /// listener-rounds that had at least one transmitting neighbor.
    pub fn collision_rate(&self) -> f64 {
        let contended = self.collisions + self.deliveries;
        if contended == 0 {
            0.0
        } else {
            self.collisions as f64 / contended as f64
        }
    }
}

/// The typed per-trial measurement an execution boils down to: what the
/// layers above the engine (scenario trials, campaign cells, analysis
/// tables) aggregate.
///
/// Extracted from an [`ExecutionOutcome`](crate::ExecutionOutcome) via
/// [`ExecutionOutcome::trial_metrics`](crate::ExecutionOutcome::trial_metrics)
/// or [`into_trial_metrics`](crate::ExecutionOutcome::into_trial_metrics).
/// Unlike the outcome it never carries a [`History`](crate::History), so it
/// is cheap to move through trial fan-outs; the optional per-round collision
/// curve is present exactly when the execution's
/// [`RecordMode`](crate::RecordMode) retained one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrialMetrics {
    /// Rounds until completion, or the executed horizon for a censored
    /// (timed-out) trial — the measured *cost*
    /// ([`ExecutionOutcome::cost`](crate::ExecutionOutcome::cost)).
    pub rounds: usize,
    /// Whether the stop condition was met within the round budget.
    pub completed: bool,
    /// Total collisions observed over the whole execution (identical under
    /// every record mode).
    pub collisions: usize,
    /// Collisions per executed round, when the execution's record mode
    /// retained them ([`RecordMode::records_collisions`]); `None` under
    /// [`RecordMode::None`].
    ///
    /// [`RecordMode::records_collisions`]: crate::RecordMode::records_collisions
    /// [`RecordMode::None`]: crate::RecordMode::None
    pub collisions_per_round: Option<Vec<usize>>,
}

impl TrialMetrics {
    /// The same metrics without the per-round curve (what scalar aggregation
    /// paths keep per trial; curves are streamed into aggregates instead of
    /// being retained trial by trial).
    pub fn without_curve(&self) -> TrialMetrics {
        TrialMetrics {
            rounds: self.rounds,
            completed: self.completed,
            collisions: self.collisions,
            collisions_per_round: None,
        }
    }
}

impl fmt::Display for TrialMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={} completed={} collisions={}{}",
            self.rounds,
            self.completed,
            self.collisions,
            match &self.collisions_per_round {
                Some(curve) => format!(" curve[{}]", curve.len()),
                None => String::new(),
            }
        )
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={} tx={} rx={} collisions={} idle={} rejected-edges={}",
            self.rounds,
            self.transmissions,
            self.deliveries,
            self.collisions,
            self.idle_listens,
            self.rejected_link_edges
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let m = Metrics::default();
        assert_eq!(m.rounds, 0);
        assert_eq!(m.transmissions_per_round(), 0.0);
        assert_eq!(m.collision_rate(), 0.0);
    }

    #[test]
    fn derived_rates() {
        let m = Metrics {
            rounds: 10,
            transmissions: 25,
            deliveries: 5,
            collisions: 15,
            idle_listens: 2,
            rejected_link_edges: 0,
        };
        assert!((m.transmissions_per_round() - 2.5).abs() < 1e-12);
        assert!((m.collision_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn trial_metrics_without_curve_drops_only_the_curve() {
        let with_curve = TrialMetrics {
            rounds: 7,
            completed: true,
            collisions: 5,
            collisions_per_round: Some(vec![1, 0, 4, 0, 0, 0, 0]),
        };
        let stripped = with_curve.without_curve();
        assert_eq!(stripped.rounds, 7);
        assert!(stripped.completed);
        assert_eq!(stripped.collisions, 5);
        assert_eq!(stripped.collisions_per_round, None);
        assert!(with_curve.to_string().contains("curve[7]"));
        assert!(!stripped.to_string().contains("curve"));
    }

    #[test]
    fn display_mentions_all_counters() {
        let m = Metrics {
            rounds: 1,
            transmissions: 2,
            deliveries: 3,
            collisions: 4,
            idle_listens: 5,
            rejected_link_edges: 6,
        };
        let s = m.to_string();
        for needle in [
            "rounds=1",
            "tx=2",
            "rx=3",
            "collisions=4",
            "idle=5",
            "rejected-edges=6",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
