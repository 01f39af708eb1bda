//! Adversarial link processes for the dual graph radio network model.
//!
//! The dual graph model delegates the behaviour of the unreliable `G' \ G`
//! edges to an adversarial *link process*. This crate implements, for each of
//! the three capability classes studied by Ghaffari, Lynch and Newport
//! (PODC 2013), both the **specific adversaries used in the paper's
//! lower-bound proofs** and a set of **natural environmental adversaries**
//! used by the upper-bound experiments:
//!
//! | Class | Adversary | Role |
//! |---|---|---|
//! | oblivious | [`oblivious::IidLinks`] | each dynamic edge present i.i.d. with probability `p` each round |
//! | oblivious | [`oblivious::GilbertElliottLinks`] | bursty per-edge on/off Markov chains (the β-factor burstiness the paper cites as motivation) |
//! | oblivious | [`oblivious::ScheduleLinks`] | arbitrary precomputed schedule |
//! | oblivious | [`oblivious::DecayAwareOblivious`] | the schedule-aware attack on fixed-order Decay that motivates Permuted Decay (Section 4.1) |
//! | oblivious | [`oblivious::BraceletOblivious`] | the isolated-broadcast-function attacker of Theorem 4.3 |
//! | online adaptive | [`online::DenseSparseOnline`] | the expectation-threshold attacker of Theorem 3.1 |
//! | online adaptive | [`online::GreedyCollisionOnline`] | frontier collision attacker |
//! | offline adaptive | [`offline::OmniscientOffline`] | sees round actions and blocks every blockable delivery (Figure 1 row 1) |
//!
//! The built-in degenerate adversaries `StaticLinks::none()` /
//! `StaticLinks::all()` live in [`dradio_sim`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oblivious;
pub mod offline;
pub mod online;
mod scan;

#[cfg(test)]
pub(crate) mod test_support;

pub use oblivious::{
    BraceletOblivious, DecayAwareOblivious, GilbertElliottLinks, IidLinks, ScheduleLinks,
};
pub use offline::OmniscientOffline;
pub use online::{DenseSparseOnline, GreedyCollisionOnline};
