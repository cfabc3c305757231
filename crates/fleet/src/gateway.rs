//! The fleet gateway: N live blockserver nodes acting as one store.
//!
//! A [`FleetGateway`] fronts a set of conversion services (each
//! running the `BlockPut`/`BlockGet`/`BlockStat`/`BlockList` ops over
//! the UDS/TCP wire protocol) and gives callers the single-store
//! surface the paper's blockserver clients saw, with the fleet
//! mechanics hidden behind it:
//!
//! * **Placement** — the [`Ring`] maps a block digest to an R-node
//!   replica set; every gateway with the same seed and membership
//!   agrees without coordination.
//! * **Writes** — `put` writes to all R replicas in ring order and
//!   succeeds once the first (acting primary) acks; fewer than R acks
//!   is counted as a partial write for the rebalance/repair machinery
//!   to close later.
//! * **Reads** — `get` tries replicas in ring order and fails over on
//!   error or timeout; when a later replica serves the block, the
//!   copies observed missing or damaged on earlier replicas are
//!   **read-repaired** in-line (the server quarantines damaged
//!   records on read precisely so this repair `put` can land). With
//!   [`FleetConfig::hedge`] set, reads are **hedged**: a primary that
//!   blows the latency budget races the next replica, first verified
//!   answer wins, and the loser is abandoned without being charged.
//! * **Health** — consecutive failures eject a node (probation
//!   re-probes let it back in), so a dead machine costs one timeout,
//!   not one per request.
//!
//! Every cross-node call goes through the bounded
//! [`retry_with_backoff`] helper, and every served payload is
//! re-hashed against its address at the gateway — a fleet must not
//! amplify a single node's corruption.

use crate::health::{HealthPolicy, HealthSnapshot, NodeHealth};
use crate::ring::{Ring, DEFAULT_SEED, DEFAULT_VNODES};
use lepton_obs::{Counter, Registry, Watchdog, WatchdogConfig};
use lepton_server::client::{self, retry_with_backoff, ClientError, RetryPolicy};
use lepton_server::Endpoint;
use lepton_storage::blockstore::StoreStats;
use lepton_storage::sha256::{sha256, Digest};
use std::sync::Arc;
use std::time::Duration;

/// Gateway configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Replication factor R: copies per block (paper-style fleets ran
    /// replicated block storage; we default to 2).
    pub replicas: usize,
    /// Virtual nodes per member on the ring.
    pub vnodes: usize,
    /// Ring seed — all gateways of one fleet must agree.
    pub seed: u64,
    /// Per-request socket timeout.
    pub timeout: Duration,
    /// Retry policy for cross-node requests (the failover path).
    pub retry: RetryPolicy,
    /// Ejection policy.
    pub health: HealthPolicy,
    /// Hedged-read latency budget: when set, a `get` whose first
    /// replica has not answered within this budget fires the same
    /// read at the next replica and serves whichever answers first
    /// (the classic tail-taming trade: a little duplicate work for a
    /// lot of p99). `None` (the default) reads strictly serially.
    pub hedge: Option<Duration>,
    /// Degraded-health watchdog windows/thresholds: the gateway feeds
    /// every replica-attempt outcome in, and a window whose error rate
    /// crosses the threshold (a dead or corrupting replica) latches
    /// the fleet-level degraded flag.
    pub watchdog: WatchdogConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 2,
            vnodes: DEFAULT_VNODES,
            seed: DEFAULT_SEED,
            timeout: Duration::from_secs(10),
            retry: RetryPolicy {
                attempts: 2,
                initial_backoff: Duration::from_millis(20),
                multiplier: 2,
                max_backoff: Duration::from_millis(200),
                // Seeded from the gateway's own placement seed: a shed
                // storm fans retries out instead of re-stampeding, and
                // a replayed fleet replays its sleeps too.
                jitter: Some(DEFAULT_SEED),
            },
            health: HealthPolicy::default(),
            hedge: None,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// One member of the fleet.
pub struct FleetNode {
    name: String,
    endpoint: Endpoint,
    health: NodeHealth,
}

impl FleetNode {
    /// Node name (the ring identity).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Where the node's service listens.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Health snapshot.
    pub fn health(&self) -> HealthSnapshot {
        self.health.snapshot()
    }
}

/// Gateway counters. All cells are `lepton_obs` counters registered on
/// the gateway's [`FleetGateway::registry`] under `fleet.*` names, so
/// a snapshot exports the same atomics the read/write paths bump.
#[derive(Debug, Default)]
pub struct FleetMetrics {
    /// Successful `put`s.
    pub puts: Arc<Counter>,
    /// Successful `get`s (served bytes or authoritative not-found).
    pub gets: Arc<Counter>,
    /// `put`s acked by fewer than R replicas.
    pub partial_writes: Arc<Counter>,
    /// `get`s served after at least one earlier replica was attempted
    /// and failed to deliver (skipping an ejected node is routing, not
    /// failover).
    pub failovers: Arc<Counter>,
    /// Copies re-written onto replicas observed missing or damaged.
    pub read_repairs: Arc<Counter>,
    /// Node ejection events.
    pub ejections: Arc<Counter>,
    /// Hedge attempts fired: reads where the first replica had not
    /// answered within the hedge budget and a second replica was
    /// asked concurrently.
    pub hedged_reads: Arc<Counter>,
    /// Reads served by a hedge attempt rather than the primary.
    pub hedge_wins: Arc<Counter>,
    /// In-flight attempts abandoned because another attempt served the
    /// read first. A cancelled loser's outcome is unknown, so it is
    /// never charged to node health and never counted as a failover.
    pub hedge_cancellations: Arc<Counter>,
}

impl FleetMetrics {
    /// Publish every counter on `registry` as `<prefix>.<field>`.
    fn bind_registry(&self, registry: &Registry, prefix: &str) {
        for (name, c) in [
            ("puts", &self.puts),
            ("gets", &self.gets),
            ("partial_writes", &self.partial_writes),
            ("failovers", &self.failovers),
            ("read_repairs", &self.read_repairs),
            ("ejections", &self.ejections),
            ("hedged_reads", &self.hedged_reads),
            ("hedge_wins", &self.hedge_wins),
            ("hedge_cancellations", &self.hedge_cancellations),
        ] {
            registry.adopt_counter(&format!("{prefix}.{name}"), c);
        }
    }
}

/// Errors the gateway can return.
#[derive(Debug)]
pub enum FleetError {
    /// The gateway has no member nodes.
    NoNodes,
    /// Every replica in the set failed the operation; carries the last
    /// per-node error for diagnosis.
    AllReplicasFailed {
        /// The block being read or written.
        key: Digest,
        /// The final node's error.
        last: ClientError,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoNodes => write!(f, "fleet has no nodes"),
            FleetError::AllReplicasFailed { key, last } => {
                write!(
                    f,
                    "all replicas failed for {}: {last}",
                    lepton_storage::blockstore::hex(key)
                )
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// Outcome of one replica read attempt, driving failover and repair.
enum ReadOutcome {
    /// Node answered: no such block. A healthy target for repair.
    Missing,
    /// Node is up but could not serve the block (damaged record,
    /// storage failure). The server quarantined damage, so a repair
    /// put can land.
    Damaged,
    /// Node unreachable or timing out — no point sending it a repair.
    Down,
    /// Node skipped because its health state refuses traffic.
    Skipped,
}

/// A hedge attempt's answer: which slot fired it, and what came back.
type AttemptReply = (usize, Result<Option<Vec<u8>>, ClientError>);

/// Per-node rows of a [`FleetGateway::stat`] aggregation.
#[derive(Clone, Debug)]
pub struct NodeStat {
    /// Node name.
    pub name: String,
    /// Did the node answer the stat probe?
    pub reachable: bool,
    /// Health snapshot at aggregation time.
    pub health: HealthSnapshot,
    /// The node's own blockstore summary, when reachable.
    pub stats: Option<StoreStats>,
}

/// Fleet-wide aggregation of per-node blockstore stats.
#[derive(Clone, Debug, Default)]
pub struct FleetStat {
    /// Per-node rows, in membership order.
    pub nodes: Vec<NodeStat>,
    /// Copies at rest across the fleet (each block counts once per
    /// replica).
    pub copies: u64,
    /// Of which Lepton-compressed.
    pub lepton_copies: u64,
    /// Sum of logical bytes across all copies.
    pub logical_bytes: u64,
    /// Sum of at-rest payload bytes across all copies.
    pub stored_bytes: u64,
    /// Nodes that answered.
    pub reachable: usize,
}

impl FleetStat {
    /// Fleet-wide savings fraction (0..1) across all copies.
    pub fn savings(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            1.0 - self.stored_bytes as f64 / self.logical_bytes as f64
        }
    }
}

/// The consistent-hash gateway over live blockserver nodes.
pub struct FleetGateway {
    nodes: Vec<FleetNode>,
    ring: Ring,
    cfg: FleetConfig,
    /// Counters.
    pub metrics: FleetMetrics,
    registry: Arc<Registry>,
    watchdog: Arc<Watchdog>,
}

impl std::fmt::Debug for FleetGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetGateway")
            .field("nodes", &self.nodes.len())
            .field("replicas", &self.cfg.replicas)
            .finish()
    }
}

impl FleetGateway {
    /// Build a gateway over `members` (name, endpoint) with `cfg`.
    pub fn new(members: Vec<(String, Endpoint)>, cfg: FleetConfig) -> FleetGateway {
        let ring = Ring::new(members.iter().map(|(n, _)| n.clone()), cfg.vnodes, cfg.seed);
        let nodes = members
            .into_iter()
            .map(|(name, endpoint)| FleetNode {
                name,
                endpoint,
                health: NodeHealth::new(cfg.health),
            })
            .collect();
        let registry = Arc::new(Registry::new());
        let metrics = FleetMetrics::default();
        metrics.bind_registry(&registry, "fleet");
        let watchdog = Arc::new(Watchdog::new(cfg.watchdog));
        FleetGateway {
            nodes,
            ring,
            cfg,
            metrics,
            registry,
            watchdog,
        }
    }

    /// The gateway's metric registry (`fleet.*` counters; a
    /// [`FleetGateway::snapshot`] adds the live degraded flag).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The gateway-level health watchdog, fed by every replica-attempt
    /// outcome.
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// Has the watchdog latched the degraded flag (e.g. a replica dead
    /// long enough for an evaluation window of elevated errors)?
    pub fn degraded(&self) -> bool {
        self.watchdog.degraded()
    }

    /// Point-in-time export of the gateway's counters plus the
    /// watchdog gauges (`health.degraded`, `watchdog.*`).
    pub fn snapshot(&self) -> lepton_obs::Snapshot {
        self.watchdog.publish(&self.registry);
        self.registry.snapshot()
    }

    /// The member nodes, in membership order.
    pub fn nodes(&self) -> &[FleetNode] {
        &self.nodes
    }

    /// The placement ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The gateway's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The replica set (node indices, primary first) for a key.
    pub fn replica_set(&self, key: &Digest) -> Vec<usize> {
        self.ring.replica_set(key, self.cfg.replicas)
    }

    fn record_outcome(&self, idx: usize, ok: bool) {
        if ok {
            self.nodes[idx].health.record_success();
        } else if self.nodes[idx].health.record_failure() {
            self.metrics.ejections.inc();
        }
    }

    /// Store a block on its replica set. Succeeds once the first
    /// replica (the acting primary) acks; replicas that could not be
    /// written are left to read-repair/rebalance and counted as a
    /// partial write.
    pub fn put(&self, data: &[u8]) -> Result<Digest, FleetError> {
        let key = sha256(data);
        let members = self.replica_set(&key);
        if members.is_empty() {
            return Err(FleetError::NoNodes);
        }
        let mut acks = 0usize;
        let mut last: Option<ClientError> = None;
        for &m in &members {
            let node = &self.nodes[m];
            if !node.health.admit() {
                continue;
            }
            match retry_with_backoff(&self.cfg.retry, |_| {
                client::block_put(&node.endpoint, data, self.cfg.timeout)
            }) {
                Ok(acked) if acked == key => {
                    self.record_outcome(m, true);
                    self.watchdog.record_event(false, false);
                    acks += 1;
                }
                Ok(_) => {
                    // A node that acks the wrong address is broken.
                    self.record_outcome(m, false);
                    self.watchdog.record_event(false, true);
                    last = Some(ClientError::Garbled("put acked a different address"));
                }
                Err(e) => {
                    self.record_outcome(m, false);
                    self.watchdog.record_event(false, true);
                    last = Some(e);
                }
            }
        }
        if acks == 0 {
            return Err(FleetError::AllReplicasFailed {
                key,
                last: last.unwrap_or(ClientError::Garbled("all replicas ejected")),
            });
        }
        if acks < members.len() {
            self.metrics.partial_writes.inc();
        }
        self.metrics.puts.inc();
        Ok(key)
    }

    /// Fetch a block, failing over across the replica set and
    /// read-repairing copies observed missing or damaged. `Ok(None)`
    /// only when *every* replica authoritatively answered "not found";
    /// a set where some replica failed is an error, because the block
    /// may exist on the unreachable copy.
    ///
    /// When [`FleetConfig::hedge`] is set, the read is hedged: if the
    /// first replica has not answered within the budget, the same read
    /// fires at the next replica concurrently and whichever answers
    /// first is served (verified); the loser is abandoned and counted
    /// in `hedge_cancellations`.
    pub fn get(&self, key: &Digest) -> Result<Option<Vec<u8>>, FleetError> {
        let members = self.replica_set(key);
        if members.is_empty() {
            return Err(FleetError::NoNodes);
        }
        match self.cfg.hedge {
            Some(budget) if members.len() >= 2 => self.get_hedged(key, &members, budget),
            _ => self.get_serial(key, &members),
        }
    }

    /// One blocking read attempt against node `m` (retry policy and
    /// all).
    fn attempt_read(&self, m: usize, key: &Digest) -> Result<Option<Vec<u8>>, ClientError> {
        retry_with_backoff(&self.cfg.retry, |_| {
            client::block_get(&self.nodes[m].endpoint, key, self.cfg.timeout)
        })
    }

    /// Classify one completed read attempt, recording node health.
    fn classify_read(
        &self,
        m: usize,
        key: &Digest,
        result: Result<Option<Vec<u8>>, ClientError>,
    ) -> Result<Vec<u8>, (ReadOutcome, Option<ClientError>)> {
        // Every completed attempt is one watchdog event: a window of
        // elevated attempt errors (dead or corrupting replica) latches
        // the fleet degraded flag.
        match result {
            Ok(Some(bytes)) => {
                if sha256(&bytes) != *key {
                    // Never let one node's corruption exit the
                    // gateway; treat as a damaged replica.
                    self.record_outcome(m, false);
                    self.watchdog.record_event(false, true);
                    Err((
                        ReadOutcome::Damaged,
                        Some(ClientError::Garbled("replica served wrong bytes")),
                    ))
                } else {
                    self.record_outcome(m, true);
                    self.watchdog.record_event(false, false);
                    Ok(bytes)
                }
            }
            Ok(None) => {
                self.record_outcome(m, true); // the node answered
                self.watchdog.record_event(false, false);
                Err((ReadOutcome::Missing, None))
            }
            Err(e) => {
                let outcome = if e.is_transient() {
                    ReadOutcome::Down
                } else {
                    ReadOutcome::Damaged
                };
                self.record_outcome(m, false);
                self.watchdog.record_event(false, true);
                Err((outcome, Some(e)))
            }
        }
    }

    /// Serve verified bytes: count the failover (if any earlier
    /// replica was *attempted* and did not deliver — skipping an
    /// already-ejected node is routing, not failover, and a cancelled
    /// hedge loser never completed, so it is neither), repair the
    /// replicas known to lack the block, bump the counter.
    fn serve_read(
        &self,
        key: &Digest,
        bytes: Vec<u8>,
        outcomes: &[(usize, ReadOutcome)],
    ) -> Result<Option<Vec<u8>>, FleetError> {
        if outcomes
            .iter()
            .any(|(_, o)| !matches!(o, ReadOutcome::Skipped))
        {
            self.metrics.failovers.inc();
        }
        self.repair(key, &bytes, outcomes);
        self.metrics.gets.inc();
        Ok(Some(bytes))
    }

    /// The terminal no-serve answer: authoritative not-found only when
    /// every replica said "missing"; otherwise the error that kept the
    /// block unreachable.
    fn exhausted_read(
        &self,
        key: &Digest,
        outcomes: &[(usize, ReadOutcome)],
        last: Option<ClientError>,
    ) -> Result<Option<Vec<u8>>, FleetError> {
        if outcomes
            .iter()
            .all(|(_, o)| matches!(o, ReadOutcome::Missing))
        {
            self.metrics.gets.inc();
            return Ok(None);
        }
        Err(FleetError::AllReplicasFailed {
            key: *key,
            last: last.unwrap_or(ClientError::Garbled("all replicas ejected")),
        })
    }

    /// Advance through `members` from `*pos`, recording skips for
    /// nodes whose health refuses traffic, until one admits a request.
    /// Admission is consulted lazily — exactly once per node per get —
    /// so a probing node's single probe slot is never consumed by a
    /// replica that was never actually tried.
    fn next_admitted(
        &self,
        members: &[usize],
        pos: &mut usize,
        outcomes: &mut Vec<(usize, ReadOutcome)>,
    ) -> Option<usize> {
        while *pos < members.len() {
            let m = members[*pos];
            *pos += 1;
            if self.nodes[m].health.admit() {
                return Some(m);
            }
            outcomes.push((m, ReadOutcome::Skipped));
        }
        None
    }

    /// The strictly serial read path: one replica at a time, in ring
    /// order.
    fn get_serial(&self, key: &Digest, members: &[usize]) -> Result<Option<Vec<u8>>, FleetError> {
        self.read_remaining(key, members, 0, Vec::with_capacity(members.len()), None)
    }

    /// Walk the admitted replicas from `pos` on, one at a time in ring
    /// order, serving the first verified answer; if none serves, give
    /// the exhaustion answer over every outcome so far. `outcomes` and
    /// `last` carry what earlier attempts (the hedged pair) recorded.
    fn read_remaining(
        &self,
        key: &Digest,
        members: &[usize],
        mut pos: usize,
        mut outcomes: Vec<(usize, ReadOutcome)>,
        mut last: Option<ClientError>,
    ) -> Result<Option<Vec<u8>>, FleetError> {
        while let Some(m) = self.next_admitted(members, &mut pos, &mut outcomes) {
            match self.classify_read(m, key, self.attempt_read(m, key)) {
                Ok(bytes) => return self.serve_read(key, bytes, &outcomes),
                Err((outcome, err)) => {
                    outcomes.push((m, outcome));
                    if err.is_some() {
                        last = err;
                    }
                }
            }
        }
        self.exhausted_read(key, &outcomes, last)
    }

    /// The hedged read path: fire the primary, and if it has not
    /// answered within `budget`, fire the next admitted replica too.
    /// First verified success wins; any attempt still in flight at
    /// serve time is abandoned (counted, never charged to health —
    /// its outcome is unknown, and charging a node for being slower
    /// than the winner would let one hot request eject a healthy
    /// node). If both hedge attempts complete without serving, the
    /// remaining replicas are tried serially, preserving the serial
    /// path's exhaustion semantics.
    fn get_hedged(
        &self,
        key: &Digest,
        members: &[usize],
        budget: Duration,
    ) -> Result<Option<Vec<u8>>, FleetError> {
        let mut outcomes: Vec<(usize, ReadOutcome)> = Vec::with_capacity(members.len());
        let mut last: Option<ClientError> = None;
        let mut pos = 0usize;

        let (tx, rx) = std::sync::mpsc::channel::<AttemptReply>();
        let Some(primary) = self.next_admitted(members, &mut pos, &mut outcomes) else {
            return self.exhausted_read(key, &outcomes, last);
        };
        self.spawn_attempt(0, primary, key, tx.clone());
        let mut fired = vec![primary];
        let mut pending = 1usize;
        let mut hedged = false;

        while pending > 0 {
            let msg = if !hedged {
                match rx.recv_timeout(budget) {
                    Ok(msg) => Some(msg),
                    Err(_) => {
                        // Budget blown: fire the hedge at the next
                        // admitted replica (if any remains).
                        hedged = true;
                        if let Some(m) = self.next_admitted(members, &mut pos, &mut outcomes) {
                            self.metrics.hedged_reads.inc();
                            self.spawn_attempt(fired.len(), m, key, tx.clone());
                            fired.push(m);
                            pending += 1;
                        }
                        None
                    }
                }
            } else {
                // We hold a sender, so recv() cannot disconnect; the
                // pending counter bounds how many messages exist.
                rx.recv().ok()
            };
            let Some((slot, result)) = msg else { continue };
            pending -= 1;
            let m = fired[slot];
            match self.classify_read(m, key, result) {
                Ok(bytes) => {
                    if slot > 0 {
                        self.metrics.hedge_wins.inc();
                    }
                    if pending > 0 {
                        self.metrics.hedge_cancellations.add(pending as u64);
                    }
                    return self.serve_read(key, bytes, &outcomes);
                }
                Err((outcome, err)) => {
                    outcomes.push((m, outcome));
                    if err.is_some() {
                        last = err;
                    }
                }
            }
        }

        // Both hedge attempts completed without a serve: walk the
        // remaining replicas serially.
        self.read_remaining(key, members, pos, outcomes, last)
    }

    /// Fire one read attempt on its own thread with fully owned data;
    /// the result (or nothing, if the gateway stopped listening) comes
    /// back over the channel tagged with its slot.
    fn spawn_attempt(
        &self,
        slot: usize,
        m: usize,
        key: &Digest,
        tx: std::sync::mpsc::Sender<AttemptReply>,
    ) {
        let endpoint = self.nodes[m].endpoint.clone();
        let key = *key;
        let timeout = self.cfg.timeout;
        let retry = self.cfg.retry;
        std::thread::spawn(move || {
            let result =
                retry_with_backoff(&retry, |_| client::block_get(&endpoint, &key, timeout));
            let _ = tx.send((slot, result));
        });
    }

    /// Re-write `data` onto replicas that answered "missing" or
    /// "damaged" while a later replica had the block. Best-effort and
    /// single-shot: a repair that fails will be retried by the next
    /// read or by a rebalance pass.
    ///
    /// A "damaged" replica's repair is verified with a follow-up read:
    /// the server quarantines *corrupt* records (so the put lands),
    /// but a record failing with an I/O error is still in place and
    /// the put silently dedups against it — the ack alone does not
    /// prove the copy was fixed, and `read_repairs` must never count
    /// repairs that did not happen. A failed repair is simply left for
    /// the next read or rebalance pass: it does not charge the node's
    /// health (the node just answered the read that got us here).
    fn repair(&self, key: &Digest, data: &[u8], outcomes: &[(usize, ReadOutcome)]) {
        for (m, outcome) in outcomes {
            let must_verify = match outcome {
                ReadOutcome::Missing => false,
                ReadOutcome::Damaged => true,
                ReadOutcome::Down | ReadOutcome::Skipped => continue,
            };
            let node = &self.nodes[*m];
            let repaired = match retry_with_backoff(&self.cfg.retry, |_| {
                client::block_put(&node.endpoint, data, self.cfg.timeout)
            }) {
                Ok(acked) if acked == *key => {
                    !must_verify
                        || matches!(
                            retry_with_backoff(&self.cfg.retry, |_| {
                                client::block_get(&node.endpoint, key, self.cfg.timeout)
                            }),
                            Ok(Some(bytes)) if sha256(&bytes) == *key
                        )
                }
                _ => false,
            };
            if repaired {
                self.record_outcome(*m, true);
                self.metrics.read_repairs.inc();
            }
        }
    }

    /// Aggregate blockstore stats across the whole fleet. Health
    /// state is reported but not modified — a stats sweep must never
    /// eject anyone.
    pub fn stat(&self) -> FleetStat {
        let mut out = FleetStat::default();
        for node in &self.nodes {
            let reply = client::block_stat(&node.endpoint, self.cfg.timeout).ok();
            let row = NodeStat {
                name: node.name.clone(),
                reachable: reply.is_some(),
                health: node.health.snapshot(),
                stats: reply,
            };
            if let Some(s) = &row.stats {
                out.copies += s.blocks;
                out.lepton_copies += s.lepton_blocks;
                out.logical_bytes += s.logical_bytes;
                out.stored_bytes += s.stored_bytes;
                out.reachable += 1;
            }
            out.nodes.push(row);
        }
        out
    }

    /// List the block addresses a member node holds (the rebalance
    /// driver's walk).
    pub fn list_node(&self, idx: usize) -> Result<Vec<Digest>, ClientError> {
        retry_with_backoff(&self.cfg.retry, |_| {
            client::block_list(&self.nodes[idx].endpoint, self.cfg.timeout)
        })
    }

    /// Fetch a block directly from one member (no failover, no
    /// repair) — the rebalance driver's read side.
    pub fn fetch_from(&self, idx: usize, key: &Digest) -> Result<Option<Vec<u8>>, ClientError> {
        retry_with_backoff(&self.cfg.retry, |_| {
            client::block_get(&self.nodes[idx].endpoint, key, self.cfg.timeout)
        })
    }

    /// Write a block directly to one member — the rebalance driver's
    /// write side.
    pub fn put_to(&self, idx: usize, data: &[u8]) -> Result<Digest, ClientError> {
        retry_with_backoff(&self.cfg.retry, |_| {
            client::block_put(&self.nodes[idx].endpoint, data, self.cfg.timeout)
        })
    }
}
