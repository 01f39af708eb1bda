//! Execution histories.

use dradio_graphs::{Edge, NodeId};

use crate::message::{Message, MessageKind};
use crate::round::Round;

/// A single successful reception: `receiver` heard `message` from `sender`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The listening node that received the message.
    pub receiver: NodeId,
    /// The transmitting node it was received from.
    pub sender: NodeId,
    /// The message content.
    pub message: Message,
}

/// Everything that happened in one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// The round this record describes.
    pub round: Round,
    /// Nodes that transmitted this round, in ascending order.
    pub transmitters: Vec<NodeId>,
    /// Dynamic edges the link process activated this round (after engine
    /// filtering).
    pub active_dynamic_edges: Vec<Edge>,
    /// Successful receptions this round.
    pub deliveries: Vec<Delivery>,
}

impl RoundRecord {
    /// Number of transmitting nodes.
    pub fn transmitter_count(&self) -> usize {
        self.transmitters.len()
    }
}

/// The complete record of an execution: one [`RoundRecord`] per executed
/// round, plus convenience queries used by stop conditions, adversaries, and
/// experiment analysis.
#[derive(Debug, Clone, Default)]
pub struct History {
    n: usize,
    records: Vec<RoundRecord>,
    /// Packed set of the nodes that have received anything (bit `v` for
    /// node `v`), grown by [`History::push`] so that
    /// [`History::received_any`] is O(1). A function of `records`.
    received: Vec<u64>,
}

impl PartialEq for History {
    fn eq(&self, other: &Self) -> bool {
        // `received` is derived from the records.
        self.n == other.n && self.records == other.records
    }
}

impl History {
    /// Creates an empty history for a network of `n` nodes.
    pub fn new(n: usize) -> Self {
        History {
            n,
            records: Vec::new(),
            received: Vec::new(),
        }
    }

    /// Number of nodes in the network the history describes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no round has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All round records in order.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// The record of `round`, if it has been executed.
    pub fn record(&self, round: Round) -> Option<&RoundRecord> {
        self.records.get(round.index())
    }

    /// The most recently recorded round.
    pub fn last(&self) -> Option<&RoundRecord> {
        self.records.last()
    }

    /// Appends a round record (engine use).
    pub fn push(&mut self, record: RoundRecord) {
        debug_assert_eq!(
            record.round.index(),
            self.records.len(),
            "rounds must be recorded in order"
        );
        for delivery in &record.deliveries {
            let v = delivery.receiver.index();
            if v / 64 >= self.received.len() {
                self.received.resize(v / 64 + 1, 0);
            }
            self.received[v / 64] |= 1u64 << (v % 64);
        }
        self.records.push(record);
    }

    /// Sets each record's active dynamic edges, in round order (engine use:
    /// the recorder keeps them aside while adaptive adversaries read the
    /// history, and attaches them to a [`RecordMode::Full`] outcome).
    ///
    /// [`RecordMode::Full`]: crate::RecordMode::Full
    pub(crate) fn attach_active_edges(&mut self, edges: Vec<Vec<Edge>>) {
        debug_assert_eq!(edges.len(), self.records.len(), "one edge list per round");
        for (record, edges) in self.records.iter_mut().zip(edges) {
            record.active_dynamic_edges = edges;
        }
    }

    /// Returns `true` if `node` has received at least one message of any
    /// kind. O(1): the history keeps the set of receivers as it grows.
    pub fn received_any(&self, node: NodeId) -> bool {
        let v = node.index();
        self.received
            .get(v / 64)
            .is_some_and(|word| word >> (v % 64) & 1 == 1)
    }

    /// Returns `true` if `node` has received at least one message of `kind`.
    pub fn received_kind(&self, node: NodeId, kind: MessageKind) -> bool {
        self.records.iter().any(|r| {
            r.deliveries
                .iter()
                .any(|d| d.receiver == node && d.message.kind() == kind)
        })
    }

    /// First round in which `node` received a message of `kind`.
    pub fn first_reception(&self, node: NodeId, kind: MessageKind) -> Option<Round> {
        for record in &self.records {
            if record
                .deliveries
                .iter()
                .any(|d| d.receiver == node && d.message.kind() == kind)
            {
                return Some(record.round);
            }
        }
        None
    }

    /// Returns `true` if `node` has received a message (of any kind) from one
    /// of the listed `senders`.
    pub fn received_from(&self, node: NodeId, senders: &[NodeId]) -> bool {
        self.records.iter().any(|r| {
            r.deliveries
                .iter()
                .any(|d| d.receiver == node && senders.contains(&d.sender))
        })
    }

    /// Number of rounds in which `node` transmitted.
    pub fn transmissions_of(&self, node: NodeId) -> usize {
        self.records
            .iter()
            .filter(|r| r.transmitters.contains(&node))
            .count()
    }

    /// Total number of successful receptions across the execution.
    pub fn total_deliveries(&self) -> usize {
        self.records.iter().map(|r| r.deliveries.len()).sum()
    }

    /// All nodes that have received a message of `kind`, in ascending order.
    pub fn informed_nodes(&self, kind: MessageKind) -> Vec<NodeId> {
        let mut informed = vec![false; self.n];
        for record in &self.records {
            for d in &record.deliveries {
                if d.message.kind() == kind {
                    informed[d.receiver.index()] = true;
                }
            }
        }
        informed
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIND_A: MessageKind = MessageKind::new(1);
    const KIND_B: MessageKind = MessageKind::new(2);

    fn delivery(receiver: usize, sender: usize, kind: MessageKind) -> Delivery {
        Delivery {
            receiver: NodeId::new(receiver),
            sender: NodeId::new(sender),
            message: Message::plain(NodeId::new(sender), kind, 0),
        }
    }

    fn sample_history() -> History {
        let mut h = History::new(4);
        h.push(RoundRecord {
            round: Round::new(0),
            transmitters: vec![NodeId::new(0)],
            active_dynamic_edges: vec![],
            deliveries: vec![delivery(1, 0, KIND_A)],
        });
        h.push(RoundRecord {
            round: Round::new(1),
            transmitters: vec![NodeId::new(1), NodeId::new(2)],
            active_dynamic_edges: vec![],
            deliveries: vec![delivery(3, 2, KIND_B)],
        });
        h
    }

    #[test]
    fn empty_history() {
        let h = History::new(3);
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.node_count(), 3);
        assert!(h.last().is_none());
        assert!(!h.received_any(NodeId::new(0)));
        assert_eq!(h.total_deliveries(), 0);
    }

    #[test]
    fn push_and_query_records() {
        let h = sample_history();
        assert_eq!(h.len(), 2);
        assert_eq!(h.record(Round::new(0)).unwrap().transmitter_count(), 1);
        assert_eq!(h.record(Round::new(1)).unwrap().transmitter_count(), 2);
        assert!(h.record(Round::new(2)).is_none());
        assert_eq!(h.last().unwrap().round, Round::new(1));
    }

    #[test]
    fn reception_queries() {
        let h = sample_history();
        assert!(h.received_any(NodeId::new(1)));
        assert!(!h.received_any(NodeId::new(2)));
        assert!(h.received_kind(NodeId::new(1), KIND_A));
        assert!(!h.received_kind(NodeId::new(1), KIND_B));
        assert_eq!(
            h.first_reception(NodeId::new(3), KIND_B),
            Some(Round::new(1))
        );
        assert_eq!(h.first_reception(NodeId::new(3), KIND_A), None);
    }

    #[test]
    fn received_from_filters_senders() {
        let h = sample_history();
        assert!(h.received_from(NodeId::new(3), &[NodeId::new(2)]));
        assert!(!h.received_from(NodeId::new(3), &[NodeId::new(0)]));
        assert!(!h.received_from(NodeId::new(0), &[NodeId::new(2)]));
    }

    #[test]
    fn transmission_counts() {
        let h = sample_history();
        assert_eq!(h.transmissions_of(NodeId::new(0)), 1);
        assert_eq!(h.transmissions_of(NodeId::new(1)), 1);
        assert_eq!(h.transmissions_of(NodeId::new(3)), 0);
    }

    #[test]
    fn informed_nodes_by_kind() {
        let h = sample_history();
        assert_eq!(h.informed_nodes(KIND_A), vec![NodeId::new(1)]);
        assert_eq!(h.informed_nodes(KIND_B), vec![NodeId::new(3)]);
        assert_eq!(h.total_deliveries(), 2);
    }
}
