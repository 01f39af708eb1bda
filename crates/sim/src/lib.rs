//! Synchronous dual-graph radio network execution engine.
//!
//! This crate implements the execution model of Section 2 of Ghaffari, Lynch
//! and Newport (PODC 2013):
//!
//! * An algorithm is a collection of `n` randomized [`Process`]es, one per
//!   node of a [`DualGraph`](dradio_graphs::DualGraph).
//! * An execution proceeds in synchronous [`Round`]s. Each round every
//!   process chooses an [`Action`]: transmit a [`Message`] or listen.
//! * A [`LinkProcess`] (the adversary) selects which unreliable `G' \ G`
//!   edges are present this round; the round topology is `G` plus that
//!   selection.
//! * Reception follows the collision rule: a listening node receives a
//!   message if and only if **exactly one** of its neighbors in the round
//!   topology transmits. Otherwise it observes silence (there is no collision
//!   detection unless explicitly enabled for diagnostics).
//! * The three classic adversary capability classes — oblivious, online
//!   adaptive, and offline adaptive — are enforced *structurally*: the
//!   engine only exposes to the link process the information its declared
//!   [`AdversaryClass`] is entitled to see.
//!
//! The [`Simulator`] drives executions, records a complete [`History`],
//! gathers [`Metrics`], and evaluates [`StopCondition`]s such as "global
//! broadcast is complete".
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use dradio_graphs::topology;
//! use dradio_sim::{
//!     Action, Assignment, Message, MessageKind, Process, ProcessContext, Role, Round,
//!     SimConfig, Simulator, StopCondition, StaticLinks,
//! };
//! use rand::RngCore;
//!
//! // A toy process: the source transmits its message every round, everyone
//! // else listens.
//! struct Shout { msg: Option<Message> }
//! impl Process for Shout {
//!     fn on_round(&mut self, _round: Round, _rng: &mut dyn RngCore) -> Action {
//!         match &self.msg {
//!             Some(m) => Action::Transmit(m.clone()),
//!             None => Action::Listen,
//!         }
//!     }
//! }
//!
//! let dual = topology::line(4)?;
//! let factory: dradio_sim::ProcessFactory = Arc::new(|ctx: &ProcessContext| {
//!     let msg = (ctx.role == Role::Source)
//!         .then(|| Message::plain(ctx.id, MessageKind::new(1), 42));
//!     Box::new(Shout { msg }) as Box<dyn Process>
//! });
//! let assignment = Assignment::global(4, 0.into());
//! let sim = Simulator::new(
//!     dual,
//!     factory,
//!     assignment,
//!     Box::new(StaticLinks::none()),
//!     SimConfig::default().with_seed(7).with_max_rounds(10),
//! )?;
//! let outcome = sim.run(StopCondition::max_rounds());
//! // The source's G-neighbor hears the message in round 1.
//! assert!(outcome.history.received_kind(1.into(), MessageKind::new(1)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod batch;
pub mod bits;
pub mod config;
pub mod engine;
pub mod error;
pub mod executor;
pub mod history;
pub mod link;
pub mod message;
pub mod metrics;
pub mod process;
pub mod recorder;
pub mod round;
pub mod sampling;
pub mod stop;

pub use action::{Action, Feedback};
pub use batch::{BatchExecutor, MAX_LANES};
pub use bits::{BitReader, BitString};
pub use config::SimConfig;
pub use engine::{derive_stream_seed, ExecutionOutcome, Simulator};
pub use error::SimError;
pub use executor::{LinkFactory, TrialExecutor};
pub use history::{Delivery, History, RoundRecord};
pub use link::{
    AdversaryClass, AdversarySetup, AdversaryView, LinkDecision, LinkProcess, LinkProfile,
    StaticLinks,
};
pub use message::{Message, MessageKind};
pub use metrics::{Metrics, TrialMetrics};
pub use process::{Assignment, BatchProfile, Process, ProcessContext, ProcessFactory, Role};
pub use recorder::{RecordMode, Recorder};
pub use round::Round;
pub use stop::StopCondition;

/// Convenient result alias for fallible simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;
