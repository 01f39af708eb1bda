//! Pluggable history recording for the execution engine.
//!
//! Most consumers of an execution never read its [`History`]: a scenario
//! trial keeps only the cost, completion flag, and collision count, yet the
//! engine would happily clone every delivered [`Message`](crate::Message)
//! into per-round records nobody looks at. [`RecordMode`] lets the caller
//! declare up front what the returned
//! [`ExecutionOutcome`](crate::ExecutionOutcome) carries, and the
//! [`Recorder`] skips everything that neither the outcome nor the adversary
//! reads.
//!
//! # The view contract
//!
//! The record mode decides only what the outcome carries; it never decides
//! what an adversary sees. An [`AdversaryClass::OnlineAdaptive`] or
//! [`AdversaryClass::OfflineAdaptive`] adversary's
//! [`AdversaryView::history`](crate::AdversaryView::history) shows every
//! round up to the previous one, with its transmitters and deliveries,
//! under every record mode. It never shows
//! [`active_dynamic_edges`](RoundRecord::active_dynamic_edges): the
//! adversary chose those itself, and the recorder keeps them aside, only
//! for a [`RecordMode::Full`] outcome. What an adversary reads is therefore
//! the same in every mode, so behaviour (every coin flip, every delivery,
//! every metric) cannot depend on the record mode, by construction.

use dradio_graphs::Edge;

use crate::history::{History, RoundRecord};
use crate::link::AdversaryClass;

/// How much of an execution the returned
/// [`ExecutionOutcome`](crate::ExecutionOutcome) carries.
///
/// The measured quantities — [`Metrics`](crate::Metrics), completion, cost —
/// are identical under every mode, and so is what an adaptive adversary
/// sees (see the [module documentation](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RecordMode {
    /// Keep the complete per-round [`History`] (every transmitter list,
    /// active dynamic edge, and delivered message), exactly as the engine
    /// always recorded it. The default.
    #[default]
    Full,
    /// Keep only a per-round collision count
    /// ([`ExecutionOutcome::collisions_per_round`](crate::ExecutionOutcome::collisions_per_round));
    /// the returned history is empty.
    CollisionsOnly,
    /// Keep nothing beyond the aggregate metrics: the returned history is
    /// empty. The fastest mode, intended for trial fan-out where only the
    /// [`Metrics`](crate::Metrics)-derived quantities are read.
    None,
}

serde::serde_enum!(RecordMode {
    Full,
    CollisionsOnly,
    None,
});

impl RecordMode {
    /// Returns `true` if this mode retains per-round [`RoundRecord`]s.
    pub fn records_history(self) -> bool {
        matches!(self, RecordMode::Full)
    }

    /// Returns `true` if this mode retains per-round collision counts.
    pub fn records_collisions(self) -> bool {
        !matches!(self, RecordMode::None)
    }
}

impl std::fmt::Display for RecordMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordMode::Full => write!(f, "full"),
            RecordMode::CollisionsOnly => write!(f, "collisions-only"),
            RecordMode::None => write!(f, "none"),
        }
    }
}

/// The engine's recording sink: keeps the rounds an adaptive adversary reads
/// and whatever the [`RecordMode`] retains, and hands the latter back at the
/// end of the run.
#[derive(Debug, Clone)]
pub struct Recorder {
    mode: RecordMode,
    /// Whether round records are kept during the run: the mode returns
    /// them, or an adaptive adversary's view shows them.
    keeps_rounds: bool,
    /// The rounds so far, without their active dynamic edges.
    history: History,
    /// Each round's active dynamic edges, kept aside for a
    /// [`RecordMode::Full`] outcome.
    active_edges: Vec<Vec<Edge>>,
    collisions_per_round: Vec<usize>,
}

impl Recorder {
    /// Creates a recorder for a network of `n` nodes that returns what
    /// `mode` retains, and keeps the rounds during the run as well when
    /// `class` is adaptive.
    pub fn new(mode: RecordMode, class: AdversaryClass, n: usize) -> Self {
        Recorder {
            mode,
            keeps_rounds: mode.records_history() || class != AdversaryClass::Oblivious,
            history: History::new(n),
            active_edges: Vec::new(),
            collisions_per_round: Vec::new(),
        }
    }

    /// The mode the outcome is recorded with.
    pub fn mode(&self) -> RecordMode {
        self.mode
    }

    /// Returns `true` if the engine must assemble each round's transmitters
    /// and deliveries: the mode retains them, or an adaptive adversary reads
    /// them.
    pub fn wants_history(&self) -> bool {
        self.keeps_rounds
    }

    /// Returns `true` if the engine must list each round's active dynamic
    /// edges ([`RecordMode::Full`] only; no adversary reads them).
    pub fn wants_edges(&self) -> bool {
        self.mode.records_history()
    }

    /// The rounds recorded so far, without their active dynamic edges: what
    /// the engine lends an adaptive adversary's view. Empty for an
    /// oblivious class unless the mode is [`RecordMode::Full`].
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Appends a round record. Its active dynamic edges are set aside for a
    /// [`RecordMode::Full`] outcome and dropped otherwise; the whole record
    /// is dropped when [`Recorder::wants_history`] is false, so callers may
    /// guard record assembly with it purely for speed.
    pub fn push(&mut self, mut record: RoundRecord) {
        if !self.keeps_rounds {
            return;
        }
        let edges = std::mem::take(&mut record.active_dynamic_edges);
        if self.mode.records_history() {
            self.active_edges.push(edges);
        }
        self.history.push(record);
    }

    /// Appends one round's collision count (retained under
    /// [`RecordMode::Full`] and [`RecordMode::CollisionsOnly`]).
    pub fn push_collisions(&mut self, collisions: usize) {
        if self.mode.records_collisions() {
            self.collisions_per_round.push(collisions);
        }
    }

    /// Consumes the recorder, returning the history the mode retains (with
    /// every round's active dynamic edges under [`RecordMode::Full`], empty
    /// otherwise) and the per-round collision counts (empty under
    /// [`RecordMode::None`]).
    pub fn finish(self) -> (History, Vec<usize>) {
        let history = if self.mode.records_history() {
            let mut history = self.history;
            history.attach_active_edges(self.active_edges);
            history
        } else {
            History::new(self.history.node_count())
        };
        (history, self.collisions_per_round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::Round;

    fn record(round: usize) -> RoundRecord {
        RoundRecord {
            round: Round::new(round),
            transmitters: vec![],
            active_dynamic_edges: vec![],
            deliveries: vec![],
        }
    }

    #[test]
    fn default_mode_is_full() {
        assert_eq!(RecordMode::default(), RecordMode::Full);
        assert!(RecordMode::Full.records_history());
        assert!(RecordMode::Full.records_collisions());
        assert!(!RecordMode::CollisionsOnly.records_history());
        assert!(RecordMode::CollisionsOnly.records_collisions());
        assert!(!RecordMode::None.records_history());
        assert!(!RecordMode::None.records_collisions());
    }

    /// A round with one delivery (node 1 hears node 0) over the dynamic
    /// edge (0, 1).
    fn delivered(round: usize) -> RoundRecord {
        use crate::history::Delivery;
        use crate::message::{Message, MessageKind};
        use dradio_graphs::NodeId;
        let (sender, receiver) = (NodeId::new(0), NodeId::new(1));
        RoundRecord {
            round: Round::new(round),
            transmitters: vec![sender],
            active_dynamic_edges: vec![Edge::new(sender, receiver)],
            deliveries: vec![Delivery {
                receiver,
                sender,
                message: Message::plain(sender, MessageKind::new(1), 0),
            }],
        }
    }

    /// Adaptive classes force the recorder to keep every round while the
    /// execution runs, whatever the mode, because their view reads it; the
    /// view never holds an edge, and the outcome still gets only what the
    /// mode retains.
    #[test]
    fn adaptive_classes_force_full_recording() {
        for mode in [
            RecordMode::Full,
            RecordMode::CollisionsOnly,
            RecordMode::None,
        ] {
            for class in [
                AdversaryClass::Oblivious,
                AdversaryClass::OnlineAdaptive,
                AdversaryClass::OfflineAdaptive,
            ] {
                let mut recorder = Recorder::new(mode, class, 4);
                assert_eq!(recorder.mode(), mode);
                let adaptive = class != AdversaryClass::Oblivious;
                assert_eq!(
                    recorder.wants_history(),
                    adaptive || mode == RecordMode::Full
                );
                assert_eq!(recorder.wants_edges(), mode == RecordMode::Full);
                recorder.push(delivered(0));
                recorder.push(delivered(1));
                let view = recorder.history();
                assert_eq!(view.len(), if recorder.wants_history() { 2 } else { 0 });
                assert!(view
                    .records()
                    .iter()
                    .all(|r| r.active_dynamic_edges.is_empty()));
                let (history, _) = recorder.finish();
                if mode == RecordMode::Full {
                    assert_eq!(history.records(), [delivered(0), delivered(1)]);
                } else {
                    assert!(history.is_empty());
                }
            }
        }
    }

    #[test]
    fn recorder_retains_by_effective_mode() {
        let mut full = Recorder::new(RecordMode::Full, AdversaryClass::Oblivious, 4);
        assert!(full.wants_history());
        full.push(record(0));
        full.push_collisions(3);
        let (history, collisions) = full.finish();
        assert_eq!(history.len(), 1);
        assert_eq!(collisions, vec![3]);

        let mut collisions_only =
            Recorder::new(RecordMode::CollisionsOnly, AdversaryClass::Oblivious, 4);
        assert!(!collisions_only.wants_history());
        collisions_only.push_collisions(2);
        let (history, collisions) = collisions_only.finish();
        assert!(history.is_empty());
        assert_eq!(collisions, vec![2]);

        let mut none = Recorder::new(RecordMode::None, AdversaryClass::Oblivious, 4);
        assert!(!none.wants_history());
        none.push_collisions(9);
        let (history, collisions) = none.finish();
        assert!(history.is_empty());
        assert!(collisions.is_empty());
    }

    #[test]
    fn recorder_keeps_the_requested_mode_for_adaptive_adversaries() {
        let mut recorder = Recorder::new(RecordMode::None, AdversaryClass::OnlineAdaptive, 4);
        assert_eq!(recorder.mode(), RecordMode::None);
        assert!(
            recorder.wants_history(),
            "the adaptive view reads the rounds"
        );
        assert!(!recorder.wants_edges());
        recorder.push(delivered(0));
        recorder.push_collisions(1);
        assert!(recorder
            .history()
            .received_any(dradio_graphs::NodeId::new(1)));
        let (history, collisions) = recorder.finish();
        assert!(history.is_empty(), "RecordMode::None returns no history");
        assert!(collisions.is_empty());
    }

    #[test]
    fn mode_round_trips_through_serde_and_displays() {
        use serde::{Deserialize, Serialize};
        for mode in [
            RecordMode::Full,
            RecordMode::CollisionsOnly,
            RecordMode::None,
        ] {
            assert_eq!(RecordMode::from_value(&mode.to_value()), Ok(mode));
        }
        assert_eq!(RecordMode::None.to_string(), "none");
        assert_eq!(RecordMode::CollisionsOnly.to_string(), "collisions-only");
        assert_eq!(RecordMode::Full.to_string(), "full");
    }
}
