//! Anomaly injection: the §6.3 pathology.
//!
//! Transparent huge pages (§6.3): on affected machines the kernel's
//! defragmentation stalls a process *before it reads any input* — up
//! to tens of seconds — disproportionately hitting p95/p99. The model
//! marks a fraction of machines "THP-enabled" and samples stalls on
//! them; stalls are amortized over the next ~10 decodes like the paper
//! observed.

use rand::rngs::StdRng;
use rand::Rng;

/// Anomaly *detection*, shared with the live stack: the runtime
/// `Watchdog` in `lepton_obs` feeds compression-ratio and shed-rate
/// series into these same detectors, so a threshold validated in an
/// offline incident replay carries over to production unmodified.
pub use lepton_obs::{MeanShiftDetector, RateDetector};

/// Anomaly configuration.
#[derive(Clone, Copy, Debug)]
pub struct AnomalyConfig {
    /// Fraction of machines with transparent huge pages enabled.
    pub thp_fraction: f64,
    /// Probability an allocation burst on a THP machine stalls.
    pub thp_stall_prob: f64,
    /// Maximum stall seconds (paper saw 30 s to first byte).
    pub thp_stall_max: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            thp_fraction: 0.0,
            thp_stall_prob: 0.05,
            thp_stall_max: 8.0,
        }
    }
}

impl AnomalyConfig {
    /// Is `machine` in the THP-affected set (deterministic by index)?
    pub fn thp_machine(&self, machine: usize) -> bool {
        if self.thp_fraction <= 0.0 {
            return false;
        }
        // Deterministic striping: machine i affected if its hash bucket
        // falls below the fraction.
        let h = (machine as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        (h as f64 / (1u64 << 24) as f64) < self.thp_fraction
    }

    /// Sample a pre-read stall for a job landing on `machine`.
    pub fn sample_stall(&self, rng: &mut StdRng, machine: usize) -> f64 {
        if !self.thp_machine(machine) {
            return 0.0;
        }
        if rng.gen_bool(self.thp_stall_prob) {
            // Long stall, consumed over subsequent decodes: model as a
            // heavy-tailed draw.
            let u: f64 = rng.gen_range(0.0..1.0);
            self.thp_stall_max * u * u
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn no_stalls_when_disabled() {
        let cfg = AnomalyConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        for m in 0..50 {
            assert_eq!(cfg.sample_stall(&mut rng, m), 0.0);
        }
    }

    #[test]
    fn thp_fraction_selects_machines() {
        let cfg = AnomalyConfig {
            thp_fraction: 0.5,
            ..Default::default()
        };
        let affected = (0..1000).filter(|&m| cfg.thp_machine(m)).count();
        assert!((300..700).contains(&affected), "affected {affected}");
        // Deterministic.
        assert_eq!(cfg.thp_machine(7), cfg.thp_machine(7));
    }

    #[test]
    fn stalls_occur_and_are_bounded() {
        let cfg = AnomalyConfig {
            thp_fraction: 1.0,
            thp_stall_prob: 0.5,
            thp_stall_max: 10.0,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let stalls: Vec<f64> = (0..1000).map(|_| cfg.sample_stall(&mut rng, 0)).collect();
        assert!(stalls.iter().any(|&s| s > 0.0));
        assert!(stalls.iter().all(|&s| s <= 10.0));
        // Heavy tail: mean well below max.
        let mean = stalls.iter().sum::<f64>() / stalls.len() as f64;
        assert!(mean < 3.0, "mean {mean}");
    }
}
