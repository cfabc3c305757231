//! The read-only latch, observed from a client: an ENOSPC on the write
//! path flips the store read-only, after which the server sheds writes
//! with the typed transient [`Status::ReadOnly`], keeps serving reads,
//! and carries the degraded-health flag (plus the `store.readonly`
//! gauge) on the `StatsV2` wire.

use lepton_server::client::{self, ClientError};
use lepton_server::{serve, Endpoint, ServiceConfig, Status};
use lepton_storage::blockstore::{ShardedStore, StoreConfig};
use lepton_storage::vfs::{FaultConfig, FaultKind, FaultVfs, Vfs};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

#[test]
fn enospc_sheds_writes_serves_reads_and_degrades_stats() {
    let vfs = FaultVfs::new(FaultConfig::default());
    let store = Arc::new(
        ShardedStore::open_on(
            vfs.clone() as Arc<dyn Vfs>,
            "/store",
            StoreConfig {
                shards: 2,
                cache_bytes: 0,
                compress_on_write: false,
                ..StoreConfig::default()
            },
        )
        .unwrap(),
    );
    let handle = serve(
        &Endpoint::tcp("127.0.0.1:0").unwrap(),
        ServiceConfig {
            blockstore: Some(Arc::clone(&store)),
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let ep = handle.endpoint();

    // Healthy first: a put lands and reads back.
    let before = b"written while the disk had room".to_vec();
    let key = client::block_put(ep, &before, TIMEOUT).unwrap();
    assert_eq!(
        client::block_get(ep, &key, TIMEOUT).unwrap().unwrap(),
        before
    );
    assert!(!handle.degraded(), "healthy store must not read degraded");

    // The disk fills: the next mutating filesystem op returns ENOSPC,
    // which must latch the store rather than half-write.
    vfs.inject_next(FaultKind::Enospc);
    let err = client::block_put(ep, b"no room for this one", TIMEOUT).unwrap_err();
    match err {
        ClientError::Refused(Status::ReadOnly) => {}
        other => panic!("expected the typed read-only shed, got {other:?}"),
    }
    assert!(
        err.is_transient(),
        "a read-only shed invites retry elsewhere"
    );
    assert!(store.is_read_only());

    // Subsequent writes shed the same way — the latch holds without
    // any further injection.
    match client::block_put(ep, b"still no room", TIMEOUT).unwrap_err() {
        ClientError::Refused(Status::ReadOnly) => {}
        other => panic!("latched store must keep shedding, got {other:?}"),
    }

    // Reads keep serving through the latch, byte-exact.
    assert_eq!(
        client::block_get(ep, &key, TIMEOUT).unwrap().unwrap(),
        before
    );

    // The degraded flag and the readonly gauge ride the `StatsV2` wire.
    let snap = client::probe_snapshot(ep, TIMEOUT).unwrap();
    assert!(snap.degraded(), "read-only latch must degrade health");
    assert_eq!(snap.gauge("store.readonly"), 1, "gauge must be exported");
    assert!(handle.degraded(), "handle view agrees with the wire view");

    handle.shutdown();
}
