//! Stop conditions: when an execution is considered complete.

use dradio_graphs::NodeId;

use crate::history::Delivery;
use crate::message::MessageKind;

/// The condition under which the engine stops before reaching the round
/// horizon.
///
/// Stop conditions are evaluated incrementally from each round's deliveries,
/// so checking them costs `O(deliveries)` per round rather than a scan of the
/// whole history.
#[derive(Debug, Clone, PartialEq)]
pub enum StopCondition {
    /// Never stop early: run until the configured horizon.
    MaxRounds,
    /// Stop when every node except the `exempt` ones has received a message
    /// of `kind` — the global broadcast completion criterion, with the source
    /// exempt because it never receives its own message.
    AllReceivedKind {
        /// The message kind that must be received.
        kind: MessageKind,
        /// Nodes that are not required to receive (typically the source).
        exempt: Vec<NodeId>,
    },
    /// Stop when each listed node has received a message of `kind`.
    NodesReceivedKind {
        /// The nodes that must receive.
        nodes: Vec<NodeId>,
        /// The message kind that must be received.
        kind: MessageKind,
    },
    /// Stop when each `receiver` has received at least one message (of any
    /// kind) sent by one of the `senders` — the local broadcast completion
    /// criterion with receivers `R` and broadcasters `B`.
    NodesReceivedFrom {
        /// The receiver set `R`.
        receivers: Vec<NodeId>,
        /// The sender set `B`.
        senders: Vec<NodeId>,
    },
    /// Stop when each `receiver` has received a message of `kind` sent by one
    /// of the `senders` — the local broadcast completion criterion restricted
    /// to payload messages, so auxiliary control traffic (e.g. seed
    /// dissemination) does not count as completion.
    NodesReceivedKindFrom {
        /// The receiver set `R`.
        receivers: Vec<NodeId>,
        /// The sender set `B`.
        senders: Vec<NodeId>,
        /// The message kind that must be received.
        kind: MessageKind,
    },
}

impl StopCondition {
    /// Run to the horizon.
    pub fn max_rounds() -> Self {
        StopCondition::MaxRounds
    }

    /// Global broadcast completion: everyone but `source` receives `kind`.
    pub fn global_broadcast(kind: MessageKind, source: NodeId) -> Self {
        StopCondition::AllReceivedKind {
            kind,
            exempt: vec![source],
        }
    }

    /// Local broadcast completion: every node in `receivers` hears some node
    /// in `senders`.
    pub fn local_broadcast(receivers: Vec<NodeId>, senders: Vec<NodeId>) -> Self {
        StopCondition::NodesReceivedFrom { receivers, senders }
    }

    /// Local broadcast completion restricted to messages of `kind`: every
    /// node in `receivers` hears a `kind` message from some node in
    /// `senders`.
    pub fn local_broadcast_kind(
        receivers: Vec<NodeId>,
        senders: Vec<NodeId>,
        kind: MessageKind,
    ) -> Self {
        StopCondition::NodesReceivedKindFrom {
            receivers,
            senders,
            kind,
        }
    }

    /// Largest node index referenced by the condition, used by the engine to
    /// validate the condition against the network size.
    pub fn max_node_index(&self) -> Option<usize> {
        let ids: Vec<usize> = match self {
            StopCondition::MaxRounds => Vec::new(),
            StopCondition::AllReceivedKind { exempt, .. } => {
                exempt.iter().map(|u| u.index()).collect()
            }
            StopCondition::NodesReceivedKind { nodes, .. } => {
                nodes.iter().map(|u| u.index()).collect()
            }
            StopCondition::NodesReceivedFrom { receivers, senders }
            | StopCondition::NodesReceivedKindFrom {
                receivers, senders, ..
            } => receivers
                .iter()
                .chain(senders.iter())
                .map(|u| u.index())
                .collect(),
        };
        ids.into_iter().max()
    }
}

/// Incremental evaluator for a [`StopCondition`] (engine use).
#[derive(Debug, Clone)]
pub struct StopTracker {
    condition: StopCondition,
    /// For conditions with a per-node requirement: which nodes are still
    /// waiting. `None` for `MaxRounds`.
    pending: Option<Vec<bool>>,
    pending_count: usize,
    /// For conditions with a sender set: whether each node of the network
    /// is in it (empty otherwise), so a delivery is tested in O(1).
    senders: Vec<bool>,
    n: usize,
}

impl StopTracker {
    /// Creates a tracker for a network of `n` nodes. A sender outside the
    /// network never counts.
    pub fn new(condition: StopCondition, n: usize) -> Self {
        let mut senders = Vec::new();
        if let StopCondition::NodesReceivedFrom {
            senders: listed, ..
        }
        | StopCondition::NodesReceivedKindFrom {
            senders: listed, ..
        } = &condition
        {
            senders.resize(n, false);
            for u in listed.iter().filter(|u| u.index() < n) {
                senders[u.index()] = true;
            }
        }
        let mut tracker = StopTracker {
            condition,
            pending: None,
            pending_count: 0,
            senders,
            n,
        };
        tracker.reset();
        tracker
    }

    /// Restores the tracker to its just-constructed state, reusing the
    /// pending buffer: [`TrialExecutor`](crate::TrialExecutor) calls this
    /// between trials instead of rebuilding the tracker.
    pub fn reset(&mut self) {
        let n = self.n;
        match &self.condition {
            StopCondition::MaxRounds => {
                self.pending = None;
                self.pending_count = 0;
            }
            StopCondition::AllReceivedKind { exempt, .. } => {
                let pending = Self::refill(&mut self.pending, n, true);
                for u in exempt {
                    if u.index() < n {
                        pending[u.index()] = false;
                    }
                }
                self.pending_count = pending.iter().filter(|&&p| p).count();
            }
            StopCondition::NodesReceivedKind { nodes, .. } => {
                let pending = Self::refill(&mut self.pending, n, false);
                for u in nodes {
                    if u.index() < n {
                        pending[u.index()] = true;
                    }
                }
                self.pending_count = pending.iter().filter(|&&p| p).count();
            }
            StopCondition::NodesReceivedFrom { receivers, .. }
            | StopCondition::NodesReceivedKindFrom { receivers, .. } => {
                let pending = Self::refill(&mut self.pending, n, false);
                for u in receivers {
                    if u.index() < n {
                        pending[u.index()] = true;
                    }
                }
                self.pending_count = pending.iter().filter(|&&p| p).count();
            }
        }
    }

    /// Fills the pending buffer with `value`, reusing its allocation.
    fn refill(slot: &mut Option<Vec<bool>>, n: usize, value: bool) -> &mut Vec<bool> {
        match slot {
            Some(pending) => {
                pending.clear();
                pending.resize(n, value);
                pending
            }
            None => slot.insert(vec![value; n]),
        }
    }

    /// Feeds the deliveries of one round into the tracker.
    pub fn observe(&mut self, deliveries: &[Delivery]) {
        for d in deliveries {
            self.observe_one(d.receiver, d.sender, d.message.kind());
        }
    }

    /// Feeds a single delivery into the tracker without requiring a
    /// materialized [`Delivery`]: the engine's fast path calls this with the
    /// `(receiver, sender, kind)` triple so stop evaluation never forces a
    /// message clone.
    pub fn observe_one(&mut self, receiver: NodeId, sender: NodeId, kind: MessageKind) {
        let Some(pending) = self.pending.as_mut() else {
            return;
        };
        let idx = receiver.index();
        if idx >= self.n || !pending[idx] {
            return;
        }
        let listed = self.senders.get(sender.index()) == Some(&true);
        let satisfied = match &self.condition {
            StopCondition::MaxRounds => false,
            StopCondition::AllReceivedKind { kind: want, .. }
            | StopCondition::NodesReceivedKind { kind: want, .. } => kind == *want,
            StopCondition::NodesReceivedFrom { .. } => listed,
            StopCondition::NodesReceivedKindFrom { kind: want, .. } => kind == *want && listed,
        };
        if satisfied {
            pending[idx] = false;
            self.pending_count -= 1;
        }
    }

    /// Returns `true` once the condition is satisfied. `MaxRounds` is never
    /// satisfied early.
    pub fn is_done(&self) -> bool {
        match self.condition {
            StopCondition::MaxRounds => false,
            _ => self.pending_count == 0,
        }
    }

    /// Number of nodes still waiting to satisfy their requirement.
    pub fn pending_count(&self) -> usize {
        self.pending_count
    }

    /// Nodes still waiting to satisfy their requirement, in ascending order.
    pub fn pending_nodes(&self) -> Vec<NodeId> {
        match &self.pending {
            None => Vec::new(),
            Some(p) => p
                .iter()
                .enumerate()
                .filter(|(_, &waiting)| waiting)
                .map(|(i, _)| NodeId::new(i))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    const KIND: MessageKind = MessageKind::new(3);
    const OTHER: MessageKind = MessageKind::new(4);

    fn delivery(receiver: usize, sender: usize, kind: MessageKind) -> Delivery {
        Delivery {
            receiver: NodeId::new(receiver),
            sender: NodeId::new(sender),
            message: Message::plain(NodeId::new(sender), kind, 0),
        }
    }

    #[test]
    fn max_rounds_never_finishes() {
        let mut t = StopTracker::new(StopCondition::max_rounds(), 4);
        t.observe(&[delivery(0, 1, KIND)]);
        assert!(!t.is_done());
        assert_eq!(t.pending_nodes(), Vec::<NodeId>::new());
    }

    #[test]
    fn global_broadcast_tracks_all_but_source() {
        let cond = StopCondition::global_broadcast(KIND, NodeId::new(0));
        let mut t = StopTracker::new(cond, 3);
        assert_eq!(t.pending_count(), 2);
        t.observe(&[delivery(1, 0, KIND)]);
        assert!(!t.is_done());
        // The wrong kind does not satisfy node 2.
        t.observe(&[delivery(2, 0, OTHER)]);
        assert!(!t.is_done());
        t.observe(&[delivery(2, 1, KIND)]);
        assert!(t.is_done());
        assert_eq!(t.pending_count(), 0);
    }

    #[test]
    fn nodes_received_kind_subset() {
        let cond = StopCondition::NodesReceivedKind {
            nodes: vec![NodeId::new(2)],
            kind: KIND,
        };
        let mut t = StopTracker::new(cond, 4);
        assert_eq!(t.pending_nodes(), vec![NodeId::new(2)]);
        // Deliveries to other nodes do not matter.
        t.observe(&[delivery(1, 0, KIND)]);
        assert!(!t.is_done());
        t.observe(&[delivery(2, 3, KIND)]);
        assert!(t.is_done());
    }

    #[test]
    fn local_broadcast_requires_sender_membership() {
        let cond = StopCondition::local_broadcast(
            vec![NodeId::new(1), NodeId::new(2)],
            vec![NodeId::new(0)],
        );
        let mut t = StopTracker::new(cond, 3);
        // Reception from a non-broadcaster does not count.
        t.observe(&[delivery(1, 2, KIND)]);
        assert!(!t.is_done());
        t.observe(&[delivery(1, 0, KIND)]);
        t.observe(&[delivery(2, 0, OTHER)]); // any kind counts for local broadcast
        assert!(t.is_done());
    }

    #[test]
    fn senders_outside_the_set_or_the_network_never_count() {
        let senders = vec![NodeId::new(0), NodeId::new(2), NodeId::new(7)];
        for cond in [
            StopCondition::local_broadcast(vec![NodeId::new(1)], senders.clone()),
            StopCondition::local_broadcast_kind(vec![NodeId::new(1)], senders, KIND),
        ] {
            let mut t = StopTracker::new(cond, 4);
            // Node 3 is in the network but not in the sender set; node 7
            // is listed but outside the network altogether.
            t.observe(&[delivery(1, 3, KIND), delivery(1, 7, KIND)]);
            assert!(!t.is_done());
            assert_eq!(t.pending_nodes(), vec![NodeId::new(1)]);
            t.observe(&[delivery(1, 2, KIND)]);
            assert!(t.is_done());
        }
    }

    #[test]
    fn duplicate_deliveries_do_not_underflow() {
        let cond = StopCondition::NodesReceivedKind {
            nodes: vec![NodeId::new(0)],
            kind: KIND,
        };
        let mut t = StopTracker::new(cond, 2);
        t.observe(&[delivery(0, 1, KIND), delivery(0, 1, KIND)]);
        t.observe(&[delivery(0, 1, KIND)]);
        assert!(t.is_done());
        assert_eq!(t.pending_count(), 0);
    }

    #[test]
    fn max_node_index_reports_referenced_nodes() {
        assert_eq!(StopCondition::max_rounds().max_node_index(), None);
        let cond = StopCondition::local_broadcast(vec![NodeId::new(5)], vec![NodeId::new(9)]);
        assert_eq!(cond.max_node_index(), Some(9));
        let cond = StopCondition::global_broadcast(KIND, NodeId::new(3));
        assert_eq!(cond.max_node_index(), Some(3));
    }

    #[test]
    fn empty_receiver_set_is_immediately_done() {
        let cond = StopCondition::local_broadcast(vec![], vec![NodeId::new(0)]);
        let t = StopTracker::new(cond, 3);
        assert!(t.is_done());
    }
}
