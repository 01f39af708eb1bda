//! Node processes (the randomized algorithms) and role assignments.

use std::fmt;
use std::sync::Arc;

use dradio_graphs::NodeId;
use rand::RngCore;

use crate::action::{Action, Feedback};
use crate::round::Round;

/// The problem-level role a node plays in an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Role {
    /// The designated source of a global broadcast.
    Source,
    /// A member of the broadcaster set `B` of a local broadcast.
    Broadcaster,
    /// Any other node.
    #[default]
    Relay,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Source => write!(f, "source"),
            Role::Broadcaster => write!(f, "broadcaster"),
            Role::Relay => write!(f, "relay"),
        }
    }
}

/// Static knowledge available to a process when it is instantiated.
///
/// Matching the paper's model (Section 2), a process knows the network size
/// `n`, the maximum degree `Δ` of `G'`, its own identifier, and its role —
/// but *not* the topology or the identities of its neighbors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessContext {
    /// This node's identifier.
    pub id: NodeId,
    /// Number of nodes in the network.
    pub n: usize,
    /// Maximum degree `Δ` of the unreliable layer `G'`.
    pub max_degree: usize,
    /// Problem-level role of this node.
    pub role: Role,
}

impl ProcessContext {
    /// Creates a context.
    pub fn new(id: NodeId, n: usize, max_degree: usize, role: Role) -> Self {
        ProcessContext {
            id,
            n,
            max_degree,
            role,
        }
    }

    /// `⌈log₂ n⌉`, the quantity written `log n` throughout the paper, with a
    /// minimum of 1 so probabilities like `2^{-i}` stay well defined for tiny
    /// networks.
    pub fn log_n(&self) -> usize {
        log2_ceil(self.n).max(1)
    }

    /// `⌈log₂ Δ⌉` with a minimum of 1.
    pub fn log_delta(&self) -> usize {
        log2_ceil(self.max_degree.max(2)).max(1)
    }
}

/// Ceiling of `log₂ x` (0 for `x ≤ 1`).
pub fn log2_ceil(x: usize) -> usize {
    if x <= 1 {
        0
    } else {
        (usize::BITS - (x - 1).leading_zeros()) as usize
    }
}

/// A randomized node process.
///
/// One boxed `Process` is created per node by the [`ProcessFactory`] at the
/// start of an execution. Each round the engine calls [`Process::on_round`]
/// to obtain the node's action and later [`Process::on_feedback`] with what
/// the node observed, except in rounds the process declared itself dormant
/// for ([`Process::next_wake`]). All randomness must be drawn from the
/// supplied `rng` (a per-node deterministic stream), never from global
/// state — this is what makes executions reproducible and what lets the
/// engine enforce the adversary capability classes.
pub trait Process: Send {
    /// Called once before round 0.
    fn on_start(&mut self, _rng: &mut dyn RngCore) {}

    /// Decides the action for `round`.
    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action;

    /// Observes the outcome of `round`.
    fn on_feedback(&mut self, _round: Round, _feedback: &Feedback, _rng: &mut dyn RngCore) {}

    /// The probability (given the process's current state, before drawing
    /// this round's coins) that [`Process::on_round`] will transmit in
    /// `round`.
    ///
    /// Adaptive adversaries are allowed to know the algorithm and the
    /// execution history, and therefore this expectation; the online adaptive
    /// attacker of Theorem 3.1 is built on it. Processes with deterministic
    /// behaviour can rely on the default implementation only if they never
    /// transmit; randomized processes should override it.
    fn transmit_probability(&self, _round: Round) -> f64 {
        0.0
    }

    /// Whether this process currently holds the broadcast message (used by
    /// diagnostics; completion predicates use the delivery history instead).
    fn is_informed(&self) -> bool {
        false
    }

    /// Short algorithm name for traces and tables.
    fn name(&self) -> &'static str {
        "process"
    }

    /// The first round `≥ next` whose [`Process::on_round`] this process
    /// needs, or `None` if it needs none until it hears something. The
    /// default, `Some(next)`, keeps the process awake in every round.
    ///
    /// In every round from `next` up to (not including) the returned one,
    /// the process promises that:
    ///
    /// * [`Process::on_round`] would return [`Action::Listen`], draw no coin
    ///   and change no state a later call could observe;
    /// * [`Process::on_feedback`] with [`Feedback::Silence`] would change
    ///   nothing;
    /// * [`Process::transmit_probability`] would return 0.
    ///
    /// So the engine may skip those calls without changing any later result,
    /// and it does: a dormant process is not called, its transmit
    /// probability reads 0, and it hears silence unnoticed. Any other
    /// feedback (a reception, or a collision under collision detection)
    /// still reaches [`Process::on_feedback`] at once. The engine asks
    /// `next_wake(Round::ZERO)` after [`Process::on_start`], and
    /// `next_wake(round.next())` after every `on_feedback` call it makes.
    /// Waking early is always allowed; a declaration that names a round too
    /// late is a broken promise and changes outcomes.
    fn next_wake(&self, next: Round) -> Option<Round> {
        Some(next)
    }

    /// Unused: see [`BatchProfile`].
    #[doc(hidden)]
    fn batch_profile(&self) -> BatchProfile {}
}

/// Unused by the engine. [`Process::batch_profile`] and this type are kept
/// only because the benchmark harness's forwarding process wrapper
/// (`perfbench/src/trace.rs`), their single consumer, names them. Nothing in
/// the workspace reads or overrides them.
#[doc(hidden)]
pub type BatchProfile = ();

/// Factory creating one process per node at execution start.
///
/// The factory is shared with *oblivious* link processes (the adversary knows
/// the algorithm) so constructions such as the bracelet attacker of Theorem
/// 4.3 can pre-simulate node behaviour before the execution begins.
pub type ProcessFactory = Arc<dyn Fn(&ProcessContext) -> Box<dyn Process> + Send + Sync>;

/// Assignment of problem-level [`Role`]s to nodes.
///
/// # Example
///
/// ```
/// use dradio_sim::{Assignment, Role};
/// use dradio_graphs::NodeId;
/// let a = Assignment::global(4, NodeId::new(2));
/// assert_eq!(a.role(NodeId::new(2)), Role::Source);
/// assert_eq!(a.role(NodeId::new(0)), Role::Relay);
/// assert_eq!(a.broadcasters().len(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    roles: Vec<Role>,
}

impl Assignment {
    /// All nodes are relays (no designated broadcasters); useful for running
    /// subroutines in isolation.
    pub fn relays(n: usize) -> Self {
        Assignment {
            roles: vec![Role::Relay; n],
        }
    }

    /// Global broadcast: `source` is the source, everyone else a relay.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn global(n: usize, source: NodeId) -> Self {
        assert!(
            source.index() < n,
            "source {source} out of range for n = {n}"
        );
        let mut roles = vec![Role::Relay; n];
        roles[source.index()] = Role::Source;
        Assignment { roles }
    }

    /// Local broadcast: every node in `broadcasters` is a broadcaster,
    /// everyone else a relay.
    ///
    /// # Panics
    ///
    /// Panics if any broadcaster is out of range.
    pub fn local(n: usize, broadcasters: &[NodeId]) -> Self {
        let mut roles = vec![Role::Relay; n];
        for &b in broadcasters {
            assert!(b.index() < n, "broadcaster {b} out of range for n = {n}");
            roles[b.index()] = Role::Broadcaster;
        }
        Assignment { roles }
    }

    /// Creates an assignment from an explicit role vector.
    pub fn from_roles(roles: Vec<Role>) -> Self {
        Assignment { roles }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// Returns `true` if the assignment covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// Role of `node` (relay for out-of-range queries).
    pub fn role(&self, node: NodeId) -> Role {
        self.roles.get(node.index()).copied().unwrap_or_default()
    }

    /// The source node, if exactly one node has the source role.
    pub fn source(&self) -> Option<NodeId> {
        let sources: Vec<NodeId> = self
            .roles
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == Role::Source)
            .map(|(i, _)| NodeId::new(i))
            .collect();
        match sources.as_slice() {
            [only] => Some(*only),
            _ => None,
        }
    }

    /// All nodes with the broadcaster role, in ascending order.
    pub fn broadcasters(&self) -> Vec<NodeId> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == Role::Broadcaster)
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Iterates over `(node, role)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Role)> + '_ {
        self.roles
            .iter()
            .enumerate()
            .map(|(i, &r)| (NodeId::new(i), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn context_logs_have_minimum_one() {
        let ctx = ProcessContext::new(NodeId::new(0), 1, 0, Role::Relay);
        assert_eq!(ctx.log_n(), 1);
        assert_eq!(ctx.log_delta(), 1);
        let big = ProcessContext::new(NodeId::new(0), 256, 16, Role::Relay);
        assert_eq!(big.log_n(), 8);
        assert_eq!(big.log_delta(), 4);
    }

    #[test]
    fn global_assignment_places_single_source() {
        let a = Assignment::global(5, NodeId::new(3));
        assert_eq!(a.source(), Some(NodeId::new(3)));
        assert_eq!(a.role(NodeId::new(3)), Role::Source);
        assert_eq!(a.iter().filter(|(_, r)| *r == Role::Source).count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn global_assignment_rejects_bad_source() {
        let _ = Assignment::global(3, NodeId::new(3));
    }

    #[test]
    fn local_assignment_marks_broadcasters() {
        let b = [NodeId::new(0), NodeId::new(2)];
        let a = Assignment::local(4, &b);
        assert_eq!(a.broadcasters(), b.to_vec());
        assert_eq!(a.source(), None);
        assert_eq!(a.role(NodeId::new(1)), Role::Relay);
    }

    #[test]
    fn relays_assignment_is_uniform() {
        let a = Assignment::relays(3);
        assert!(a.iter().all(|(_, r)| r == Role::Relay));
        assert!(!a.is_empty());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn out_of_range_role_defaults_to_relay() {
        let a = Assignment::global(3, NodeId::new(0));
        assert_eq!(a.role(NodeId::new(99)), Role::Relay);
    }

    #[test]
    fn role_display() {
        assert_eq!(Role::Source.to_string(), "source");
        assert_eq!(Role::Broadcaster.to_string(), "broadcaster");
        assert_eq!(Role::Relay.to_string(), "relay");
    }
}
