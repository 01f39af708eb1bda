//! Simulation configuration.

use crate::error::SimError;
use crate::recorder::RecordMode;
use crate::Result;

/// Configuration of a single execution.
///
/// # Example
///
/// ```
/// use dradio_sim::{RecordMode, SimConfig};
/// let cfg = SimConfig::default().with_seed(42).with_max_rounds(5_000);
/// assert_eq!(cfg.seed(), 42);
/// assert_eq!(cfg.max_rounds(), 5_000);
/// assert!(!cfg.collision_detection());
/// assert_eq!(cfg.record_mode(), RecordMode::Full);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    max_rounds: usize,
    seed: u64,
    collision_detection: bool,
    record_mode: RecordMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_rounds: 100_000,
            seed: 0,
            collision_detection: false,
            record_mode: RecordMode::Full,
        }
    }
}

impl SimConfig {
    /// Creates the default configuration (100 000 round horizon, seed 0, no
    /// collision detection).
    pub fn new() -> Self {
        SimConfig::default()
    }

    /// Sets the maximum number of rounds to execute.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the master random seed. Everything in the execution — node coins,
    /// adversary coins — is derived deterministically from this seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables collision detection (a diagnostic mode: listening nodes are
    /// told [`Feedback::Collision`](crate::Feedback::Collision) instead of
    /// silence when two or more neighbors transmit). The paper's model has no
    /// collision detection, so experiments leave this off.
    pub fn with_collision_detection(mut self, enabled: bool) -> Self {
        self.collision_detection = enabled;
        self
    }

    /// Selects how much of the execution the returned outcome carries
    /// (default [`RecordMode::Full`]). It never changes what an adaptive
    /// adversary sees: its view shows every earlier round's transmitters and
    /// deliveries under every mode (see the
    /// [`recorder`](crate::recorder) module's view contract).
    pub fn with_record_mode(mut self, record_mode: RecordMode) -> Self {
        self.record_mode = record_mode;
        self
    }

    /// The round horizon.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether collision detection is enabled.
    pub fn collision_detection(&self) -> bool {
        self.collision_detection
    }

    /// The requested record mode.
    pub fn record_mode(&self) -> RecordMode {
        self.record_mode
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the horizon is zero.
    pub fn validate(&self) -> Result<()> {
        if self.max_rounds == 0 {
            return Err(SimError::InvalidConfig {
                reason: "max_rounds must be at least 1".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.max_rounds(), 100_000);
        assert_eq!(cfg.seed(), 0);
        assert!(!cfg.collision_detection());
        assert!(cfg.validate().is_ok());
        assert_eq!(SimConfig::new(), cfg);
    }

    #[test]
    fn builders_set_fields() {
        let cfg = SimConfig::default()
            .with_max_rounds(10)
            .with_seed(99)
            .with_collision_detection(true)
            .with_record_mode(RecordMode::None);
        assert_eq!(cfg.max_rounds(), 10);
        assert_eq!(cfg.seed(), 99);
        assert!(cfg.collision_detection());
        assert_eq!(cfg.record_mode(), RecordMode::None);
    }

    #[test]
    fn zero_horizon_is_rejected() {
        let cfg = SimConfig::default().with_max_rounds(0);
        assert!(matches!(
            cfg.validate(),
            Err(SimError::InvalidConfig { .. })
        ));
    }
}
