//! Blocking clients for the conversion service.
//!
//! Two ways to talk to a service:
//!
//! * The free functions ([`compress`], [`block_get`], …) speak the
//!   legacy one-conversion-per-connection protocol, exactly as the
//!   blockserver does it (§5.5): connect, write op + payload,
//!   half-close, read status + payload to EOF.
//! * [`MuxClient`] speaks the framed multiplexed protocol: one
//!   connection, many pipelined requests, responses correlated by
//!   frame id and possibly out of order.

use crate::endpoint::{Conn, Endpoint};
use crate::protocol::{
    block_stat_from_wire, read_bounded, read_frame_header, write_frame, Op, Status, MUX_MAGIC,
};
use lepton_obs::Snapshot;
use lepton_storage::blockstore::StoreStats;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Errors a conversion client can see.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write, timeout).
    Io(io::Error),
    /// The service answered, but with a non-OK status.
    Refused(Status),
    /// The service's response did not parse.
    Garbled(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Refused(s) => write!(f, "refused: {s:?}"),
            ClientError::Garbled(w) => write!(f, "garbled response: {w}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// True when the failure was a socket timeout — the §6.6 "decode
    /// exceeded the timeout window" condition the caller must queue
    /// for automated investigation.
    pub fn is_timeout(&self) -> bool {
        match self {
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            ClientError::Refused(Status::Timeout) => true,
            _ => false,
        }
    }

    /// True when retrying the same request could plausibly succeed:
    /// transport failures, timeouts, and admission-control sheds
    /// ([`Status::Overloaded`] is a statement about the *service's*
    /// moment, not about the request — backing off and retrying,
    /// ideally elsewhere, is exactly what the shedding node wants).
    /// A non-timeout refusal is authoritative (the input is bad
    /// everywhere, so no other replica would answer differently), a
    /// garbled reply means a protocol mismatch no retry will fix, and
    /// an `InvalidData` I/O error is the size-budget gate
    /// (`read_bounded`) — deterministic, so retrying it only burns
    /// backoff sleeps.
    /// A read-only shed ([`Status::ReadOnly`]) is likewise about the
    /// *replica's disk*, not the request — another node can take the
    /// write, so it is transient too.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(e) => e.kind() != io::ErrorKind::InvalidData,
            ClientError::Refused(Status::Overloaded) => true,
            ClientError::Refused(Status::ReadOnly) => true,
            _ => self.is_timeout(),
        }
    }
}

/// Bounded retry-with-backoff for one-shot requests. Every caller of
/// this crate used to hand-roll single attempts; the fleet gateway's
/// failover path needs disciplined retries, so the policy lives here
/// where any client can use it.
///
/// ```
/// use lepton_server::RetryPolicy;
/// use std::time::Duration;
///
/// let policy = RetryPolicy {
///     attempts: 4,
///     initial_backoff: Duration::from_millis(10),
///     multiplier: 2,
///     max_backoff: Duration::from_millis(25),
///     jitter: None,
/// };
/// assert_eq!(policy.backoff_for(0), Duration::from_millis(10));
/// assert_eq!(policy.backoff_for(1), Duration::from_millis(20));
/// assert_eq!(policy.backoff_for(2), Duration::from_millis(25)); // capped
/// assert_eq!(RetryPolicy::none().attempts, 1); // single shot
///
/// // Seeded jitter: deterministic, always within (half, full].
/// let jittered = RetryPolicy { jitter: Some(7), ..policy };
/// let d = jittered.backoff_for(1);
/// assert!(d > Duration::from_millis(10) && d <= Duration::from_millis(20));
/// assert_eq!(d, jittered.backoff_for(1)); // same seed, same sleep
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means no retry).
    pub attempts: u32,
    /// Sleep before the first retry.
    pub initial_backoff: Duration,
    /// Each subsequent backoff multiplies by this (exponential).
    pub multiplier: u32,
    /// Backoff ceiling, whatever the exponent says.
    pub max_backoff: Duration,
    /// Backoff jitter seed. `None` keeps the exact exponential
    /// schedule; `Some(seed)` scales each sleep by a pseudo-random
    /// factor in (0.5, 1.0], a pure function of `(seed, attempt)` —
    /// so a shed storm's synchronized clients fan out instead of
    /// retrying in lockstep, while a test replaying the same seed
    /// sees the same sleeps.
    pub jitter: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            initial_backoff: Duration::from_millis(50),
            multiplier: 2,
            max_backoff: Duration::from_secs(2),
            jitter: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no sleeping).
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            initial_backoff: Duration::ZERO,
            multiplier: 1,
            max_backoff: Duration::ZERO,
            jitter: None,
        }
    }

    /// The same policy with seeded backoff jitter enabled.
    pub fn with_jitter(self, seed: u64) -> Self {
        RetryPolicy {
            jitter: Some(seed),
            ..self
        }
    }

    /// The sleep after failed attempt number `attempt` (0-based):
    /// `initial * multiplier^attempt`, capped at `max_backoff`, then
    /// scaled into (0.5, 1.0] of itself when jitter is seeded.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = self.multiplier.max(1).saturating_pow(attempt).min(1 << 20);
        let base = (self.initial_backoff * factor).min(self.max_backoff);
        match self.jitter {
            None => base,
            Some(seed) => {
                // SplitMix64 over (seed, attempt): full-period, cheap,
                // and — unlike thread-local RNG state — replayable.
                let mut z = seed
                    .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                // Scale by (0.5, 1.0]: half-to-full keeps the ceiling
                // meaningful while decorrelating the fleet.
                let frac = 0.5 + ((z >> 11) as f64 + 1.0) / (1u64 << 54) as f64;
                base.mul_f64(frac)
            }
        }
    }
}

/// Run `op` up to `policy.attempts` times, sleeping the policy's
/// backoff between attempts. Only [transient](ClientError::is_transient)
/// errors are retried — a refusal or garbled reply returns
/// immediately. `op` receives the 0-based attempt number.
pub fn retry_with_backoff<T>(
    policy: &RetryPolicy,
    mut op: impl FnMut(u32) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let attempts = policy.attempts.max(1);
    let mut attempt = 0;
    loop {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt + 1 < attempts => {
                std::thread::sleep(policy.backoff_for(attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Maximum response size a client will buffer (a decompressed chunk
/// plus headroom).
const MAX_RESPONSE: usize = 64 << 20;

/// Issue one request and read the full response.
pub fn convert(
    ep: &Endpoint,
    op: Op,
    payload: &[u8],
    timeout: Duration,
) -> Result<(Status, Vec<u8>), ClientError> {
    let mut conn = ep.connect(Some(timeout))?;
    conn.write_all(&[op.to_wire()])?;
    conn.write_all(payload)?;
    conn.flush()?;
    conn.shutdown_write()?;

    let mut status_byte = [0u8; 1];
    let mut got = 0;
    while got < 1 {
        match conn.read(&mut status_byte)? {
            0 => return Err(ClientError::Garbled("empty response")),
            n => got += n,
        }
    }
    let status =
        Status::from_wire(status_byte[0]).ok_or(ClientError::Garbled("unknown status byte"))?;
    let body = read_bounded(&mut conn, MAX_RESPONSE)?;
    Ok((status, body))
}

/// Compress a JPEG via the service; `Ok` payload is the container.
pub fn compress(ep: &Endpoint, jpeg: &[u8], timeout: Duration) -> Result<Vec<u8>, ClientError> {
    match convert(ep, Op::Compress, jpeg, timeout)? {
        (Status::Ok, body) => Ok(body),
        (status, _) => Err(ClientError::Refused(status)),
    }
}

/// Decompress a Lepton container via the service.
pub fn decompress(
    ep: &Endpoint,
    container: &[u8],
    timeout: Duration,
) -> Result<Vec<u8>, ClientError> {
    match convert(ep, Op::Decompress, container, timeout)? {
        (Status::Ok, body) => Ok(body),
        (status, _) => Err(ClientError::Refused(status)),
    }
}

/// Liveness probe.
pub fn ping(ep: &Endpoint, timeout: Duration) -> Result<(), ClientError> {
    match convert(ep, Op::Ping, &[], timeout)? {
        (Status::Ok, _) => Ok(()),
        (status, _) => Err(ClientError::Refused(status)),
    }
}

/// Full telemetry snapshot ([`Op::StatsV2`]): every registry counter,
/// gauge, and latency histogram, plus the degraded-health flag. A
/// server that does not speak the op refuses it with a typed status.
pub fn probe_snapshot(ep: &Endpoint, timeout: Duration) -> Result<Snapshot, ClientError> {
    match convert(ep, Op::StatsV2, &[], timeout)? {
        (Status::Ok, body) => {
            Snapshot::from_wire(&body).map_err(|_| ClientError::Garbled("stats v2 snapshot"))
        }
        (status, _) => Err(ClientError::Refused(status)),
    }
}

/// Store a block in the service's blockstore; returns its 32-byte
/// content address (the SHA-256 of `data`).
pub fn block_put(ep: &Endpoint, data: &[u8], timeout: Duration) -> Result<[u8; 32], ClientError> {
    match convert(ep, Op::BlockPut, data, timeout)? {
        (Status::Ok, body) => <[u8; 32]>::try_from(body.as_slice())
            .map_err(|_| ClientError::Garbled("block address size")),
        (status, _) => Err(ClientError::Refused(status)),
    }
}

/// Fetch a block's original bytes by content address. `Ok(None)` means
/// the service has no block at that address.
pub fn block_get(
    ep: &Endpoint,
    key: &[u8; 32],
    timeout: Duration,
) -> Result<Option<Vec<u8>>, ClientError> {
    match convert(ep, Op::BlockGet, key, timeout)? {
        (Status::Ok, body) => Ok(Some(body)),
        (Status::NotFound, _) => Ok(None),
        (status, _) => Err(ClientError::Refused(status)),
    }
}

/// Summarize the service's blockstore.
pub fn block_stat(ep: &Endpoint, timeout: Duration) -> Result<StoreStats, ClientError> {
    match convert(ep, Op::BlockStat, &[], timeout)? {
        (Status::Ok, body) => {
            block_stat_from_wire(&body).ok_or(ClientError::Garbled("block stat reply size"))
        }
        (status, _) => Err(ClientError::Refused(status)),
    }
}

/// List every block address in the service's blockstore. The reply is
/// concatenated 32-byte digests; anything else is garbled.
pub fn block_list(ep: &Endpoint, timeout: Duration) -> Result<Vec<[u8; 32]>, ClientError> {
    match convert(ep, Op::BlockList, &[], timeout)? {
        (Status::Ok, body) => {
            if body.len() % 32 != 0 {
                return Err(ClientError::Garbled("block list reply size"));
            }
            Ok(body
                .chunks_exact(32)
                .map(|c| <[u8; 32]>::try_from(c).expect("32-byte chunks"))
                .collect())
        }
        (status, _) => Err(ClientError::Refused(status)),
    }
}

/// A client for the framed multiplexed protocol: one connection, many
/// pipelined requests in flight, responses correlated by frame id.
///
/// [`send`](MuxClient::send) queues a request and returns immediately
/// with its id; [`recv`](MuxClient::recv) blocks until that id's
/// response arrives, stashing any other responses that land first
/// (the server may answer out of order — a `Ping` overtakes a big
/// compress). [`call`](MuxClient::call) is the one-shot convenience.
///
/// The id `u32::MAX` is reserved: the server answers on it when a
/// protocol-level failure (oversized or truncated frame) makes the
/// real id unrecoverable, and closes the connection after.
pub struct MuxClient {
    conn: Conn,
    next_id: u32,
    /// Responses that arrived while waiting for a different id.
    stashed: HashMap<u32, (Status, Vec<u8>)>,
}

impl MuxClient {
    /// Connect and switch the connection into framed mode.
    pub fn connect(ep: &Endpoint, timeout: Duration) -> Result<MuxClient, ClientError> {
        let mut conn = ep.connect(Some(timeout))?;
        conn.write_all(&[MUX_MAGIC])?;
        conn.flush()?;
        Ok(MuxClient {
            conn,
            next_id: 0,
            stashed: HashMap::new(),
        })
    }

    /// Queue one request; returns the frame id to [`recv`](Self::recv)
    /// on. Does not wait for the response — that is the point.
    pub fn send(&mut self, op: Op, payload: &[u8]) -> Result<u32, ClientError> {
        let id = self.next_id;
        // Skip the reserved protocol-failure id on wraparound.
        self.next_id = match self.next_id.wrapping_add(1) {
            u32::MAX => 0,
            n => n,
        };
        write_frame(&mut self.conn, id, op.to_wire(), payload)?;
        Ok(id)
    }

    /// Block until the response for `id` arrives. Responses for other
    /// ids are stashed for their own `recv` calls.
    pub fn recv(&mut self, id: u32) -> Result<(Status, Vec<u8>), ClientError> {
        let mut body = Vec::new();
        let status = self.recv_into(id, &mut body)?;
        Ok((status, body))
    }

    /// [`recv`](Self::recv), with the body copied into `out` *as it
    /// arrives* — a streamed `Decompress` body is usable from its first
    /// bytes. A connection the server aborted mid-body surfaces as
    /// [`ClientError::Io`] (`UnexpectedEof`) after a partial `out`:
    /// the frame header declared more than arrived.
    pub fn recv_into(&mut self, id: u32, out: &mut impl Write) -> Result<Status, ClientError> {
        if let Some((status, body)) = self.stashed.remove(&id) {
            out.write_all(&body)?;
            return Ok(status);
        }
        loop {
            let (got, byte, len) = read_frame_header(&mut self.conn)?
                .ok_or(ClientError::Garbled("connection closed mid-pipeline"))?;
            if len > MAX_RESPONSE {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "frame over budget").into());
            }
            let status =
                Status::from_wire(byte).ok_or(ClientError::Garbled("unknown status byte"))?;
            if got == id {
                let copied = io::copy(&mut (&mut self.conn).take(len as u64), out)?;
                if copied < len as u64 {
                    return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
                }
                return Ok(status);
            }
            if got == u32::MAX {
                // Protocol-level failure: the connection is done.
                return Err(ClientError::Refused(status));
            }
            let mut payload = vec![0u8; len];
            self.conn.read_exact(&mut payload)?;
            self.stashed.insert(got, (status, payload));
        }
    }

    /// One request, one response: `send` + `recv`.
    pub fn call(&mut self, op: Op, payload: &[u8]) -> Result<(Status, Vec<u8>), ClientError> {
        let id = self.send(op, payload)?;
        self.recv(id)
    }

    /// One request, its response body streamed into `out`: `send` +
    /// [`recv_into`](Self::recv_into).
    pub fn call_into(
        &mut self,
        op: Op,
        payload: &[u8],
        out: &mut impl Write,
    ) -> Result<Status, ClientError> {
        let id = self.send(op, payload)?;
        self.recv_into(id, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io_err() -> ClientError {
        ClientError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "down"))
    }

    #[test]
    fn transient_classification() {
        assert!(io_err().is_transient());
        assert!(ClientError::Refused(Status::Timeout).is_transient());
        // A shed is an invitation to retry elsewhere, not a verdict
        // on the request.
        assert!(ClientError::Refused(Status::Overloaded).is_transient());
        // A read-only latch is this replica's disk problem; the write
        // belongs elsewhere.
        assert!(ClientError::Refused(Status::ReadOnly).is_transient());
        assert!(!ClientError::Refused(Status::BadRequest).is_transient());
        assert!(!ClientError::Garbled("x").is_transient());
        // The response-size budget is deterministic; retrying it is
        // pure backoff waste.
        let too_big = ClientError::Io(io::Error::new(io::ErrorKind::InvalidData, "over budget"));
        assert!(!too_big.is_transient());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            attempts: 8,
            initial_backoff: Duration::from_millis(10),
            multiplier: 2,
            max_backoff: Duration::from_millis(55),
            jitter: None,
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(10));
        assert_eq!(p.backoff_for(1), Duration::from_millis(20));
        assert_eq!(p.backoff_for(2), Duration::from_millis(40));
        assert_eq!(p.backoff_for(3), Duration::from_millis(55), "capped");
        assert_eq!(p.backoff_for(31), Duration::from_millis(55), "no overflow");
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_decorrelating() {
        let base = RetryPolicy {
            attempts: 8,
            initial_backoff: Duration::from_millis(40),
            multiplier: 2,
            max_backoff: Duration::from_secs(2),
            jitter: None,
        };
        let a = base.with_jitter(0xCAFE);
        let b = base.with_jitter(0xCAFE);
        let c = base.with_jitter(0xBEEF);
        let mut diverged = false;
        for attempt in 0..8 {
            let exact = base.backoff_for(attempt);
            let d = a.backoff_for(attempt);
            // Same seed: bit-identical schedule (replayable chaos).
            assert_eq!(d, b.backoff_for(attempt), "attempt {attempt}");
            // Bounded: never more than the exponential schedule, never
            // less than half of it — the ceiling still means something.
            assert!(d <= exact, "attempt {attempt}: {d:?} > {exact:?}");
            assert!(d * 2 >= exact, "attempt {attempt}: {d:?} under half");
            if d != c.backoff_for(attempt) {
                diverged = true;
            }
        }
        // Different seeds: different schedules (no retry lockstep).
        assert!(diverged, "two fleets with two seeds must not sync up");
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let p = RetryPolicy {
            attempts: 3,
            initial_backoff: Duration::from_millis(1),
            multiplier: 1,
            max_backoff: Duration::from_millis(1),
            jitter: None,
        };
        let mut seen = Vec::new();
        let out = retry_with_backoff(&p, |attempt| {
            seen.push(attempt);
            if attempt < 2 {
                Err(io_err())
            } else {
                Ok("served")
            }
        });
        assert_eq!(out.unwrap(), "served");
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn retry_is_bounded() {
        let p = RetryPolicy {
            attempts: 3,
            initial_backoff: Duration::from_millis(1),
            multiplier: 1,
            max_backoff: Duration::from_millis(1),
            jitter: None,
        };
        let mut calls = 0u32;
        let out: Result<(), _> = retry_with_backoff(&p, |_| {
            calls += 1;
            Err(io_err())
        });
        assert!(out.is_err());
        assert_eq!(calls, 3, "attempts include the first");
    }

    #[test]
    fn refusals_are_not_retried() {
        let mut calls = 0u32;
        let out: Result<(), _> = retry_with_backoff(&RetryPolicy::default(), |_| {
            calls += 1;
            Err(ClientError::Refused(Status::BadRequest))
        });
        assert!(matches!(out, Err(ClientError::Refused(Status::BadRequest))));
        assert_eq!(calls, 1, "a rejection is authoritative");
    }

    #[test]
    fn none_policy_is_single_shot() {
        let p = RetryPolicy::none();
        assert_eq!(p.attempts, 1);
        let mut calls = 0u32;
        let _: Result<(), _> = retry_with_backoff(&p, |_| {
            calls += 1;
            Err(io_err())
        });
        assert_eq!(calls, 1);
    }
}
