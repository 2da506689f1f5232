//! Fault-injection configuration.

use serde::Serialize;
use vp_net::SimDuration;

/// Knobs for the measurement artifacts the simulator injects.
///
/// Defaults are tuned to the artifact rates the paper reports or implies:
/// ~2% duplicate replies, a small alias rate (replies "from a different
/// IP-address than the original target"), occasional late replies (the
/// pipeline discards replies >15 min after measurement start), and rare
/// unsolicited packets hitting the collector.
#[derive(Debug, Clone, Serialize)]
pub struct FaultConfig {
    /// Probability a transmission is silently dropped.
    pub loss: f64,
    /// Probability a responding host sends duplicate replies.
    pub duplicate_prob: f64,
    /// Duplicate count is heavy-tailed up to this cap (the paper observed
    /// systems replying "up to thousands of times").
    pub max_duplicates: u32,
    /// Probability a reply is sourced from a different address in the same
    /// block than the probed one.
    pub alias_prob: f64,
    /// Probability a reply is delayed by [`FaultConfig::late_delay`].
    pub late_prob: f64,
    /// Extra delay applied to late replies.
    pub late_delay: SimDuration,
    /// Per-injected-packet probability that an unrelated host also sends an
    /// unsolicited packet to the same destination (scanner backscatter).
    pub unsolicited_prob: f64,
    /// Per-round probability a responsive block is temporarily down
    /// (drives the to-NR / from-NR churn of Fig. 9, ~2.4%).
    pub churn_down_prob: f64,
    /// Length of a churn epoch (the paper's measurement round interval).
    pub churn_round: SimDuration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            loss: 0.002,
            duplicate_prob: 0.02,
            max_duplicates: 1000,
            alias_prob: 0.01,
            late_prob: 0.002,
            late_delay: SimDuration::from_mins(20),
            unsolicited_prob: 0.0005,
            churn_down_prob: 0.025,
            churn_round: SimDuration::from_mins(15),
        }
    }
}

impl FaultConfig {
    /// A configuration with every fault disabled — for tests that need the
    /// clean-channel behaviour.
    pub fn none() -> Self {
        FaultConfig {
            loss: 0.0,
            duplicate_prob: 0.0,
            max_duplicates: 0,
            alias_prob: 0.0,
            late_prob: 0.0,
            late_delay: SimDuration::ZERO,
            unsolicited_prob: 0.0,
            churn_down_prob: 0.0,
            churn_round: SimDuration::from_mins(15),
        }
    }

    /// Validates that all probabilities are in range.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("loss", self.loss),
            ("duplicate_prob", self.duplicate_prob),
            ("alias_prob", self.alias_prob),
            ("late_prob", self.late_prob),
            ("unsolicited_prob", self.unsolicited_prob),
            ("churn_down_prob", self.churn_down_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} out of [0,1]"));
            }
        }
        if self.churn_round == SimDuration::ZERO {
            return Err("churn_round must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(FaultConfig::default().validate().is_ok());
        assert!(FaultConfig::none().validate().is_ok());
    }

    #[test]
    fn out_of_range_rejected() {
        let cfg = FaultConfig {
            loss: 1.5,
            ..FaultConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("loss"));
        let cfg = FaultConfig {
            churn_round: SimDuration::ZERO,
            ..FaultConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn none_disables_everything() {
        let c = FaultConfig::none();
        assert_eq!(c.loss, 0.0);
        assert_eq!(c.duplicate_prob, 0.0);
        assert_eq!(c.churn_down_prob, 0.0);
    }
}
