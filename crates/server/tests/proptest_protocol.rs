//! Property tests for the wire protocol: every decoder total over
//! arbitrary bytes, every encoder inverted by its decoder.

use lepton_obs::{hist, MetricValue, Snapshot, SnapshotWireError};
use lepton_server::protocol::{read_bounded, read_request, Op, Status, EXIT_CODES};
use proptest::prelude::*;

/// Arbitrary single metric value, covering all three kinds (histogram
/// buckets generated sparse, ascending, in range — the valid set).
fn arb_metric_value() -> impl Strategy<Value = MetricValue> {
    prop_oneof![
        any::<u64>().prop_map(MetricValue::Counter),
        (any::<i64>(), any::<i64>())
            .prop_map(|(value, high_water)| MetricValue::Gauge { value, high_water }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::btree_map(0u16..hist::BUCKET_COUNT as u16, 1u64..1 << 40, 0..12)
        )
            .prop_map(|(count, sum, buckets)| {
                MetricValue::Histogram(lepton_obs::HistogramSnapshot {
                    count,
                    sum,
                    buckets: buckets.into_iter().collect(), // BTreeMap ⇒ ascending
                })
            }),
    ]
}

/// Arbitrary snapshot with valid names and values.
fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    let name = (0usize..10_000).prop_map(|i| format!("metric.{i}.value_us"));
    proptest::collection::vec((name, arb_metric_value()), 0..24)
        .prop_map(|entries| Snapshot { entries })
}

proptest! {
    /// `from_wire` is total over all 256 byte values and inverts
    /// `to_wire` exactly on the valid set.
    #[test]
    fn op_decode_total_and_consistent(b in any::<u8>()) {
        if let Some(op) = Op::from_wire(b) {
            prop_assert_eq!(op.to_wire(), b);
        }
    }

    #[test]
    fn status_decode_total_and_consistent(b in any::<u8>()) {
        if let Some(status) = Status::from_wire(b) {
            prop_assert_eq!(status.to_wire(), b);
        }
    }

    /// `StatsV2` snapshot wire: decode inverts encode exactly for
    /// arbitrary valid snapshots (all metric kinds, sparse histogram
    /// buckets, the degraded flag).
    #[test]
    fn stats_v2_snapshot_roundtrip(snap in arb_snapshot()) {
        let wire = snap.to_wire();
        let back = Snapshot::from_wire(&wire).expect("self-encoded snapshot must parse");
        prop_assert_eq!(back.entries, snap.entries);
    }

    /// Truncation at *every* prefix length yields a typed error, never
    /// a panic or a silently-short snapshot; appended trailing bytes
    /// are likewise rejected with their exact count.
    #[test]
    fn stats_v2_truncation_and_trailing_rejected(snap in arb_snapshot(), extra in 1usize..9) {
        let wire = snap.to_wire();
        for cut in 0..wire.len() {
            match Snapshot::from_wire(&wire[..cut]) {
                Err(_) => {}
                Ok(parsed) => prop_assert!(
                    false,
                    "prefix of {cut}/{} bytes parsed to {} entries",
                    wire.len(),
                    parsed.entries.len()
                ),
            }
        }
        let mut padded = wire.clone();
        padded.extend(std::iter::repeat_n(0u8, extra));
        prop_assert_eq!(
            Snapshot::from_wire(&padded),
            Err(SnapshotWireError::TrailingBytes(extra))
        );
    }

    /// An oversized entry count is refused by the announced header
    /// alone — no attacker-controlled allocation happens first.
    #[test]
    fn stats_v2_oversized_count_rejected(n in (lepton_obs::snapshot::MAX_ENTRIES + 1)..u32::MAX) {
        let mut wire = vec![2u8, 0u8];
        wire.extend_from_slice(&n.to_le_bytes());
        prop_assert_eq!(
            Snapshot::from_wire(&wire),
            Err(SnapshotWireError::TooManyEntries(n))
        );
    }

    /// Request framing: op byte + arbitrary payload + EOF parses back
    /// to exactly that pair for any payload within budget.
    #[test]
    fn request_framing_roundtrip(op in any::<u8>(), payload in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut wire = Vec::with_capacity(1 + payload.len());
        wire.push(op);
        wire.extend_from_slice(&payload);
        let mut r: &[u8] = &wire;
        let (got_op, got_payload) = read_request(&mut r, 4096).unwrap().unwrap();
        prop_assert_eq!(got_op, op);
        prop_assert_eq!(got_payload, payload);
    }

    /// The size budget is exact: budget-sized payloads pass, one byte
    /// more fails.
    #[test]
    fn read_bounded_budget_is_exact(n in 0usize..2048) {
        let data = vec![0xABu8; n];
        let mut r: &[u8] = &data;
        prop_assert_eq!(read_bounded(&mut r, n).unwrap().len(), n);
        if n > 0 {
            let mut r: &[u8] = &data;
            prop_assert!(read_bounded(&mut r, n - 1).is_err());
        }
    }
}

#[test]
fn every_exit_code_has_a_wire_status() {
    // Protects the wire table against someone adding an ExitCode
    // variant without extending EXIT_CODES.
    for code in EXIT_CODES {
        let status = Status::Rejected(code);
        let b = status.to_wire();
        assert_eq!(Status::from_wire(b), Some(status));
    }
}
