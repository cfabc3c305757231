//! Point-in-time metric snapshots and their versioned wire format.
//!
//! This is the payload of the server's `StatsV2` op. Layout (all
//! integers little-endian):
//!
//! ```text
//! u8  version        (= WIRE_VERSION)
//! u8  flags          (bit 0: watchdog degraded; rest reserved, zero)
//! u32 entry_count    (reject > MAX_ENTRIES)
//! entry*:
//!   u16 name_len     (1..=MAX_NAME, UTF-8 bytes follow)
//!   u8  kind         (0 counter, 1 gauge, 2 histogram)
//!   counter:   u64 value
//!   gauge:     i64 value, i64 high_water
//!   histogram: u64 count, u64 sum, u16 n_buckets (<= BUCKET_COUNT),
//!              then n_buckets × (u16 index < BUCKET_COUNT, u64 count),
//!              indexes strictly ascending
//! ```
//!
//! Decoding is strict: truncated or oversized payloads, bad versions,
//! unknown kinds, malformed names and out-of-range buckets all fail
//! with a typed [`SnapshotWireError`]. The version byte leaves room for
//! a later layout; version 1 was a fixed 24-byte reply on another op
//! byte, which is retired.

use crate::hist::{HistogramSnapshot, BUCKET_COUNT};

/// Version byte emitted by [`Snapshot::to_wire`].
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on entries a decoder will accept.
pub const MAX_ENTRIES: u32 = 4096;

/// Upper bound on a metric name length in bytes.
pub const MAX_NAME: usize = 256;

/// One metric's value inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value plus its high-water mark.
    Gauge {
        /// Current value.
        value: i64,
        /// Highest value observed.
        high_water: i64,
    },
    /// Sparse histogram copy.
    Histogram(HistogramSnapshot),
}

/// A name-sorted point-in-time copy of a registry (plus the health
/// flag), convertible to and from the v2 wire format.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` pairs, ascending by name.
    pub entries: Vec<(String, MetricValue)>,
}

/// Typed decode failures for the v2 snapshot wire format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotWireError {
    /// Payload ended before the announced structure did.
    Truncated,
    /// Bytes remained after the announced structure ended.
    TrailingBytes(usize),
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown metric-kind byte.
    BadKind(u8),
    /// Name length zero, over [`MAX_NAME`], or not UTF-8.
    BadName,
    /// More entries than [`MAX_ENTRIES`] announced.
    TooManyEntries(u32),
    /// Histogram bucket index out of range or not ascending.
    BadBucket(u16),
}

impl std::fmt::Display for SnapshotWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotWireError::Truncated => write!(f, "snapshot payload truncated"),
            SnapshotWireError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after snapshot")
            }
            SnapshotWireError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotWireError::BadKind(k) => write!(f, "unknown metric kind {k}"),
            SnapshotWireError::BadName => write!(f, "malformed metric name"),
            SnapshotWireError::TooManyEntries(n) => {
                write!(f, "snapshot announces {n} entries (cap {MAX_ENTRIES})")
            }
            SnapshotWireError::BadBucket(i) => write!(f, "bad histogram bucket index {i}"),
        }
    }
}

impl std::error::Error for SnapshotWireError {}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotWireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotWireError::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotWireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SnapshotWireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, SnapshotWireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotWireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, SnapshotWireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

impl Snapshot {
    /// Value for `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Convenience: counter value for `name`, or 0.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(&MetricValue::Counter(v)) => v,
            _ => 0,
        }
    }

    /// Convenience: gauge value for `name`, or 0.
    pub fn gauge(&self, name: &str) -> i64 {
        match self.get(name) {
            Some(&MetricValue::Gauge { value, .. }) => value,
            _ => 0,
        }
    }

    /// Convenience: histogram snapshot for `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Merge entries from `other` after this snapshot's own (callers
    /// keep namespaces disjoint via prefixes), re-sorting by name.
    pub fn merge(&mut self, other: Snapshot) {
        self.entries.extend(other.entries);
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// True when the embedded health flag entry reports degraded.
    pub fn degraded(&self) -> bool {
        self.gauge("health.degraded") != 0
    }

    /// Serialise to the v2 wire format (see module docs).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.entries.len() * 32);
        out.push(WIRE_VERSION);
        out.push(u8::from(self.degraded()));
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (name, v) in &self.entries {
            debug_assert!(!name.is_empty() && name.len() <= MAX_NAME);
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            match v {
                MetricValue::Counter(c) => {
                    out.push(0);
                    out.extend_from_slice(&c.to_le_bytes());
                }
                MetricValue::Gauge { value, high_water } => {
                    out.push(1);
                    out.extend_from_slice(&value.to_le_bytes());
                    out.extend_from_slice(&high_water.to_le_bytes());
                }
                MetricValue::Histogram(h) => {
                    out.push(2);
                    out.extend_from_slice(&h.count.to_le_bytes());
                    out.extend_from_slice(&h.sum.to_le_bytes());
                    out.extend_from_slice(&(h.buckets.len() as u16).to_le_bytes());
                    for &(idx, n) in &h.buckets {
                        out.extend_from_slice(&idx.to_le_bytes());
                        out.extend_from_slice(&n.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Strict decode of the v2 wire format.
    pub fn from_wire(buf: &[u8]) -> Result<Snapshot, SnapshotWireError> {
        let mut c = Cursor { buf, pos: 0 };
        let version = c.u8()?;
        if version != WIRE_VERSION {
            return Err(SnapshotWireError::BadVersion(version));
        }
        let _flags = c.u8()?; // redundant with the health.degraded entry
        let count = c.u32()?;
        if count > MAX_ENTRIES {
            return Err(SnapshotWireError::TooManyEntries(count));
        }
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let name_len = c.u16()? as usize;
            if name_len == 0 || name_len > MAX_NAME {
                return Err(SnapshotWireError::BadName);
            }
            let name = std::str::from_utf8(c.take(name_len)?)
                .map_err(|_| SnapshotWireError::BadName)?
                .to_owned();
            let kind = c.u8()?;
            let value = match kind {
                0 => MetricValue::Counter(c.u64()?),
                1 => MetricValue::Gauge {
                    value: c.i64()?,
                    high_water: c.i64()?,
                },
                2 => {
                    let count = c.u64()?;
                    let sum = c.u64()?;
                    let n_buckets = c.u16()? as usize;
                    if n_buckets > BUCKET_COUNT {
                        return Err(SnapshotWireError::BadBucket(n_buckets as u16));
                    }
                    let mut buckets = Vec::with_capacity(n_buckets);
                    let mut last: Option<u16> = None;
                    for _ in 0..n_buckets {
                        let idx = c.u16()?;
                        if idx as usize >= BUCKET_COUNT || last.is_some_and(|l| idx <= l) {
                            return Err(SnapshotWireError::BadBucket(idx));
                        }
                        last = Some(idx);
                        buckets.push((idx, c.u64()?));
                    }
                    MetricValue::Histogram(HistogramSnapshot {
                        count,
                        sum,
                        buckets,
                    })
                }
                k => return Err(SnapshotWireError::BadKind(k)),
            };
            entries.push((name, value));
        }
        if c.pos != buf.len() {
            return Err(SnapshotWireError::TrailingBytes(buf.len() - c.pos));
        }
        Ok(Snapshot { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            entries: vec![
                ("a.count".into(), MetricValue::Counter(42)),
                (
                    "b.depth".into(),
                    MetricValue::Gauge {
                        value: -3,
                        high_water: 17,
                    },
                ),
                (
                    "c.lat_us".into(),
                    MetricValue::Histogram(HistogramSnapshot {
                        count: 3,
                        sum: 300,
                        buckets: vec![(5, 1), (80, 2)],
                    }),
                ),
            ],
        }
    }

    #[test]
    fn wire_roundtrip() {
        let s = sample();
        assert_eq!(Snapshot::from_wire(&s.to_wire()).unwrap(), s);
        let empty = Snapshot::default();
        assert_eq!(Snapshot::from_wire(&empty.to_wire()).unwrap(), empty);
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let wire = sample().to_wire();
        for cut in 0..wire.len() {
            assert_eq!(
                Snapshot::from_wire(&wire[..cut]),
                Err(SnapshotWireError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn trailing_and_oversize_rejected() {
        let mut wire = sample().to_wire();
        wire.push(0);
        assert_eq!(
            Snapshot::from_wire(&wire),
            Err(SnapshotWireError::TrailingBytes(1))
        );

        let mut huge = vec![WIRE_VERSION, 0];
        huge.extend_from_slice(&(MAX_ENTRIES + 1).to_le_bytes());
        assert_eq!(
            Snapshot::from_wire(&huge),
            Err(SnapshotWireError::TooManyEntries(MAX_ENTRIES + 1))
        );
    }

    #[test]
    fn bad_version_kind_name_bucket_rejected() {
        let mut wire = sample().to_wire();
        wire[0] = 9;
        assert!(matches!(
            Snapshot::from_wire(&wire),
            Err(SnapshotWireError::BadVersion(9))
        ));

        // kind byte of the first entry: 1 ver + 1 flags + 4 count +
        // 2 name_len + 7 name.
        let mut wire = sample().to_wire();
        wire[15] = 7;
        assert!(matches!(
            Snapshot::from_wire(&wire),
            Err(SnapshotWireError::BadKind(7))
        ));

        let mut wire = sample().to_wire();
        wire[6] = 0; // name_len low byte → 0
        wire[7] = 0;
        assert_eq!(Snapshot::from_wire(&wire), Err(SnapshotWireError::BadName));
    }

    #[test]
    fn degraded_flag_travels() {
        let mut s = Snapshot::default();
        assert!(!s.degraded());
        s.entries.push((
            "health.degraded".into(),
            MetricValue::Gauge {
                value: 1,
                high_water: 1,
            },
        ));
        assert!(s.degraded());
        assert_eq!(s.to_wire()[1], 1);
        assert!(Snapshot::from_wire(&s.to_wire()).unwrap().degraded());
    }
}
