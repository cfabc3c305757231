//! Runtime anomaly watchdogs — the paper's §6 monitoring loop.
//!
//! The deployment in the paper watched two kinds of signal: *value*
//! series (fleet compression ratio drifting means a model or corpus
//! regression) and *rate* series (shed/error spikes mean overload or
//! a sick replica). [`MeanShiftDetector`] and [`RateDetector`] are
//! those two alarms; the offline incident-replay harnesses
//! (`lepton_cluster::anomaly`) re-export and reuse them, so a
//! threshold tuned in replay means the same thing live.
//!
//! A [`Watchdog`] owns one of each, buckets observations into
//! fixed-size evaluation windows (count-based, so tests and replays
//! are deterministic — no wall clock), and latches a degraded-health
//! flag that servers expose via `StatsV2` and fleet gateways consult
//! for routing decisions. The flag clears itself after a configurable
//! number of consecutive healthy windows.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Flags values that shift from the long-run baseline by more than
/// `sigma` standard deviations (Welford online mean/variance).
///
/// Anomalous observations are *not* absorbed into the baseline — a
/// sustained regression keeps alarming instead of re-training the
/// detector to accept it.
#[derive(Clone, Debug)]
pub struct MeanShiftDetector {
    sigma: f64,
    min_samples: u64,
    n: u64,
    mean: f64,
    m2: f64,
}

impl MeanShiftDetector {
    /// Detector alarming at `sigma` deviations once `min_samples`
    /// baseline observations have accumulated.
    pub fn new(sigma: f64, min_samples: u64) -> Self {
        MeanShiftDetector {
            sigma,
            min_samples: min_samples.max(2),
            n: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Observe `x`; true when it is anomalous against the baseline.
    pub fn observe(&mut self, x: f64) -> bool {
        if self.n >= self.min_samples {
            let var = self.m2 / (self.n - 1) as f64;
            let dev = var.sqrt().max(f64::EPSILON * self.mean.abs().max(1.0));
            if (x - self.mean).abs() > self.sigma * dev {
                return true;
            }
        }
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        false
    }

    /// Baseline observations absorbed so far.
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// Current baseline mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// Flags windows whose event rate (`hits / events`) exceeds a fixed
/// threshold fraction.
#[derive(Clone, Copy, Debug)]
pub struct RateDetector {
    threshold: f64,
}

impl RateDetector {
    /// Detector alarming when a window's rate exceeds `threshold`
    /// (a fraction in 0..=1).
    pub fn new(threshold: f64) -> Self {
        RateDetector { threshold }
    }

    /// True when `hits` out of `events` exceeds the threshold.
    pub fn observe(&self, hits: u64, events: u64) -> bool {
        events > 0 && hits as f64 / events as f64 > self.threshold
    }
}

/// Watchdog thresholds. Defaults are deliberately conservative: a
/// window only trips on a >25% shed/error rate or a 4σ ratio shift.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Events per evaluation window (count-based, not time-based).
    pub window: u64,
    /// Standard deviations of compression-ratio shift that alarm.
    pub ratio_sigma: f64,
    /// Baseline ratio samples required before the shift alarm arms.
    pub min_ratio_samples: u64,
    /// Shed-rate fraction above which a window is anomalous.
    pub shed_threshold: f64,
    /// Error-rate fraction above which a window is anomalous.
    pub error_threshold: f64,
    /// Consecutive healthy windows required to clear the flag.
    pub clear_after: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            window: 32,
            ratio_sigma: 4.0,
            min_ratio_samples: 64,
            shed_threshold: 0.25,
            error_threshold: 0.25,
            clear_after: 2,
        }
    }
}

#[derive(Debug, Default)]
struct WindowState {
    events: u64,
    sheds: u64,
    errors: u64,
    ratio_sum: f64,
    ratio_n: u64,
    healthy_streak: u32,
}

/// Live anomaly watchdog latching a degraded-health flag.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    degraded: AtomicBool,
    evaluations: AtomicU64,
    trips: AtomicU64,
    inner: Mutex<(WindowState, MeanShiftDetector)>,
}

impl Watchdog {
    /// New watchdog with the given thresholds.
    pub fn new(cfg: WatchdogConfig) -> Self {
        let detector = MeanShiftDetector::new(cfg.ratio_sigma, cfg.min_ratio_samples);
        Watchdog {
            cfg,
            degraded: AtomicBool::new(false),
            evaluations: AtomicU64::new(0),
            trips: AtomicU64::new(0),
            inner: Mutex::new((WindowState::default(), detector)),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// Record one admission/read event. `shed` marks load-shedding
    /// refusals; `error` marks failures (conversion errors, replica
    /// failovers). Completes a window every `cfg.window` events.
    pub fn record_event(&self, shed: bool, error: bool) {
        let mut inner = self.inner.lock().expect("watchdog poisoned");
        let (w, _) = &mut *inner;
        w.events += 1;
        w.sheds += u64::from(shed);
        w.errors += u64::from(error);
        if w.events >= self.cfg.window {
            self.evaluate(&mut inner);
        }
    }

    /// Record one compression ratio (compressed/original, 0..≈1).
    pub fn record_ratio(&self, ratio: f64) {
        if !ratio.is_finite() {
            return;
        }
        let mut inner = self.inner.lock().expect("watchdog poisoned");
        inner.0.ratio_sum += ratio;
        inner.0.ratio_n += 1;
    }

    fn evaluate(&self, inner: &mut (WindowState, MeanShiftDetector)) {
        let (w, detector) = inner;
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        let rates = RateDetector::new(self.cfg.shed_threshold).observe(w.sheds, w.events)
            || RateDetector::new(self.cfg.error_threshold).observe(w.errors, w.events);
        let ratio_shift = if w.ratio_n > 0 {
            detector.observe(w.ratio_sum / w.ratio_n as f64)
        } else {
            false
        };
        if rates || ratio_shift {
            w.healthy_streak = 0;
            if !self.degraded.swap(true, Ordering::Relaxed) {
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            w.healthy_streak += 1;
            if w.healthy_streak >= self.cfg.clear_after {
                self.degraded.store(false, Ordering::Relaxed);
            }
        }
        let streak = w.healthy_streak;
        *w = WindowState {
            healthy_streak: streak,
            ..WindowState::default()
        };
    }

    /// True while the degraded-health flag is latched.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Windows evaluated so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Healthy→degraded transitions so far.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Export state into `registry` under `watchdog.*` gauges.
    pub fn publish(&self, registry: &crate::Registry) {
        registry
            .gauge("health.degraded")
            .set(i64::from(self.degraded()));
        registry
            .gauge("watchdog.evaluations")
            .set(self.evaluations() as i64);
        registry.gauge("watchdog.trips").set(self.trips() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            window: 8,
            clear_after: 2,
            ..WatchdogConfig::default()
        }
    }

    #[test]
    fn shed_storm_trips_within_one_window() {
        let w = Watchdog::new(cfg());
        for _ in 0..8 {
            w.record_event(true, false);
        }
        assert!(w.degraded());
        assert_eq!(w.evaluations(), 1);
        assert_eq!(w.trips(), 1);
    }

    #[test]
    fn healthy_windows_clear_the_flag() {
        let w = Watchdog::new(cfg());
        for _ in 0..8 {
            w.record_event(false, true);
        }
        assert!(w.degraded());
        for _ in 0..8 {
            w.record_event(false, false);
        }
        assert!(w.degraded(), "one healthy window is not enough");
        for _ in 0..8 {
            w.record_event(false, false);
        }
        assert!(!w.degraded());
        assert_eq!(w.trips(), 1);
    }

    #[test]
    fn low_rate_errors_stay_healthy() {
        let w = Watchdog::new(cfg());
        for i in 0..64 {
            w.record_event(false, i % 8 == 0); // 12.5% < 25%
        }
        assert!(!w.degraded());
        assert_eq!(w.evaluations(), 8);
    }

    #[test]
    fn ratio_shift_trips_after_baseline() {
        let w = Watchdog::new(WatchdogConfig {
            window: 4,
            min_ratio_samples: 4,
            ratio_sigma: 4.0,
            ..WatchdogConfig::default()
        });
        // Stable baseline around 0.77 with tiny jitter; one event per
        // ratio, so every 4 observations close out a window.
        for i in 0..32 {
            w.record_ratio(0.77 + (i % 4) as f64 * 1e-3);
            w.record_event(false, false);
        }
        assert!(!w.degraded());
        // Corpus suddenly stops compressing.
        for _ in 0..4 {
            w.record_ratio(0.99);
            w.record_event(false, false);
        }
        assert!(w.degraded());
    }

    #[test]
    fn mean_shift_detector_flags_outliers_only() {
        let mut d = MeanShiftDetector::new(3.0, 4);
        for i in 0..100 {
            assert!(!d.observe(10.0 + (i % 5) as f64 * 0.1));
        }
        assert!(d.observe(20.0));
        // The outlier was not absorbed: baseline still near 10.2.
        assert!((d.mean() - 10.2).abs() < 0.1);
    }

    #[test]
    fn publish_exports_gauges() {
        let w = Watchdog::new(cfg());
        for _ in 0..8 {
            w.record_event(true, false);
        }
        let reg = crate::Registry::new();
        w.publish(&reg);
        let s = reg.snapshot();
        assert_eq!(s.gauge("health.degraded"), 1);
        assert_eq!(s.gauge("watchdog.evaluations"), 1);
        assert!(s.degraded());
    }
}
