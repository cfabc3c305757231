//! Per-node health tracking: consecutive-failure ejection with
//! probation re-probes.
//!
//! The paper's deployment leaned on load balancers to steer around
//! unhealthy blockservers (§5.5, §6.6 — hosts that time out get queued
//! for automated investigation); the gateway needs the same reflex
//! in-process. The state machine is the standard circuit breaker:
//!
//! ```text
//! Healthy --(eject_after consecutive failures)--> Ejected
//! Ejected --(probation elapsed)--> Probing   (exactly one request)
//! Probing --success--> Healthy      Probing --failure--> Ejected
//! ```
//!
//! While a node is `Ejected` the gateway sends it nothing, so one dead
//! machine costs each request at most one timeout ever, not one
//! timeout per request. The single-probe rule keeps a recovering node
//! from being trampled the instant its probation ends.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Ejection policy knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive failures before a node is ejected.
    pub eject_after: u32,
    /// How long an ejected node sits out before one probe is allowed.
    pub probation: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            eject_after: 3,
            probation: Duration::from_secs(5),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum State {
    Healthy,
    Ejected { since: Instant },
    Probing { since: Instant },
}

struct Inner {
    state: State,
    consecutive_failures: u32,
    ejections: u64,
}

/// One node's health, shared by every request path that touches it.
pub struct NodeHealth {
    policy: HealthPolicy,
    inner: Mutex<Inner>,
}

/// Point-in-time view of a node's health (for `stat` output).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Is traffic currently being kept off this node?
    pub ejected: bool,
    /// Current consecutive-failure streak.
    pub consecutive_failures: u32,
    /// Times this node has been ejected over the gateway's lifetime.
    pub ejections: u64,
}

impl NodeHealth {
    /// A healthy node under `policy`.
    pub fn new(policy: HealthPolicy) -> NodeHealth {
        NodeHealth {
            policy,
            inner: Mutex::new(Inner {
                state: State::Healthy,
                consecutive_failures: 0,
                ejections: 0,
            }),
        }
    }

    /// Should a request be sent to this node right now?
    ///
    /// `Healthy` always admits. `Ejected` admits exactly one request
    /// once probation has elapsed (moving to `Probing`); the answer to
    /// everyone else is no until that probe reports back — or until a
    /// whole further probation passes, which covers a probe whose
    /// caller died without reporting.
    pub fn admit(&self) -> bool {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match g.state {
            State::Healthy => true,
            State::Ejected { since } => {
                if since.elapsed() >= self.policy.probation {
                    g.state = State::Probing {
                        since: Instant::now(),
                    };
                    true
                } else {
                    false
                }
            }
            State::Probing { since } => {
                if since.elapsed() >= self.policy.probation {
                    // The outstanding probe evidently never reported;
                    // allow another.
                    g.state = State::Probing {
                        since: Instant::now(),
                    };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// A request to this node succeeded: any streak ends, probation
    /// ends, the node is healthy.
    pub fn record_success(&self) {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        g.consecutive_failures = 0;
        g.state = State::Healthy;
    }

    /// A request to this node failed. Returns `true` when this failure
    /// ejected the node (so the caller can count ejection events).
    pub fn record_failure(&self) -> bool {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        g.consecutive_failures = g.consecutive_failures.saturating_add(1);
        let eject = match g.state {
            State::Healthy => g.consecutive_failures >= self.policy.eject_after,
            // A failed probe re-ejects immediately: the node had its
            // one chance.
            State::Probing { .. } => true,
            State::Ejected { .. } => false,
        };
        if eject {
            g.state = State::Ejected {
                since: Instant::now(),
            };
            g.ejections += 1;
        }
        eject
    }

    /// Is the node currently ejected (including mid-probe)?
    pub fn is_ejected(&self) -> bool {
        self.snapshot().ejected
    }

    /// Snapshot for reporting.
    pub fn snapshot(&self) -> HealthSnapshot {
        let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        HealthSnapshot {
            ejected: !matches!(g.state, State::Healthy),
            consecutive_failures: g.consecutive_failures,
            ejections: g.ejections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> HealthPolicy {
        HealthPolicy {
            eject_after: 3,
            probation: Duration::from_millis(30),
        }
    }

    #[test]
    fn ejects_after_consecutive_failures_only() {
        let h = NodeHealth::new(quick());
        assert!(!h.record_failure());
        assert!(!h.record_failure());
        h.record_success(); // streak broken
        assert!(!h.record_failure());
        assert!(!h.record_failure());
        assert!(h.record_failure(), "third consecutive ejects");
        assert!(h.is_ejected());
        assert!(!h.admit(), "ejected nodes get no traffic");
        assert_eq!(h.snapshot().ejections, 1);
    }

    #[test]
    fn probation_admits_exactly_one_probe() {
        let h = NodeHealth::new(quick());
        for _ in 0..3 {
            h.record_failure();
        }
        assert!(!h.admit());
        std::thread::sleep(Duration::from_millis(35));
        assert!(h.admit(), "probation elapsed: one probe");
        assert!(!h.admit(), "second caller waits for the probe verdict");
    }

    #[test]
    fn probe_success_restores_health() {
        let h = NodeHealth::new(quick());
        for _ in 0..3 {
            h.record_failure();
        }
        std::thread::sleep(Duration::from_millis(35));
        assert!(h.admit());
        h.record_success();
        assert!(!h.is_ejected());
        assert!(h.admit());
        assert_eq!(h.snapshot().consecutive_failures, 0);
    }

    #[test]
    fn probe_failure_re_ejects_immediately() {
        let h = NodeHealth::new(quick());
        for _ in 0..3 {
            h.record_failure();
        }
        std::thread::sleep(Duration::from_millis(35));
        assert!(h.admit());
        assert!(h.record_failure(), "one failed probe re-ejects");
        assert!(!h.admit(), "back on the bench");
        assert_eq!(h.snapshot().ejections, 2);
    }

    #[test]
    fn stuck_probe_is_replaced_after_another_probation() {
        let h = NodeHealth::new(quick());
        for _ in 0..3 {
            h.record_failure();
        }
        std::thread::sleep(Duration::from_millis(35));
        assert!(h.admit()); // probe dispatched, never reports
        assert!(!h.admit());
        std::thread::sleep(Duration::from_millis(35));
        assert!(h.admit(), "a lost probe must not wedge the node");
    }

    #[test]
    fn a_panic_holding_the_lock_does_not_wedge_the_node() {
        let h = std::sync::Arc::new(NodeHealth::new(quick()));
        let h2 = std::sync::Arc::clone(&h);
        let _ = std::thread::spawn(move || {
            let _g = h2.inner.lock();
            panic!("poison the lock");
        })
        .join();
        assert!(h.inner.is_poisoned());
        assert!(h.admit());
        assert!(!h.record_failure());
        assert_eq!(h.snapshot().consecutive_failures, 1);
        h.record_success();
        assert_eq!(h.snapshot().consecutive_failures, 0);
    }
}
