//! Cross-crate integration: the service layer wired into the
//! operational machinery — §6.6 timeout requeue, §5.7 shutoff-driven
//! Deflate fallback, and the storage layer fed through the socket.

use lepton::cluster::anomaly::TimeoutQueue;
use lepton::corpus::builder::{clean_jpeg, CorpusSpec};
use lepton::server::{client, serve, ClientError, Endpoint, ServiceConfig, Status};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

fn spec() -> CorpusSpec {
    CorpusSpec {
        min_dim: 64,
        max_dim: 160,
        ..Default::default()
    }
}

fn tcp_any() -> Endpoint {
    Endpoint::tcp("127.0.0.1:0").unwrap()
}

/// §6.6: a decode that exceeds the timeout window is not an error to
/// page a human about — it is queued and re-verified on an isolated,
/// healthy cluster; three consecutive clean decodes clear it.
#[test]
fn timed_out_decode_clears_through_requeue_pipeline() {
    // A big enough image that a 1 ms client deadline cannot be met:
    // the kernel rounds a 1 ms socket timeout up to a few scheduler
    // ticks (4–8 ms measured), so the decode must take far longer
    // (≈ 100 ms here) than that, not merely longer than 1 ms.
    let big = CorpusSpec {
        min_dim: 1800,
        max_dim: 2400,
        ..Default::default()
    };
    let jpeg = clean_jpeg(&big, 42);
    let container = lepton::codec::compress(&jpeg, &Default::default()).unwrap();

    let overloaded = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let err = client::decompress(overloaded.endpoint(), &container, Duration::from_millis(1))
        .expect_err("1 ms deadline must trip");
    assert!(
        err.is_timeout(),
        "classified as the §6.6 condition: {err:?}"
    );

    // The pipeline: report, then drain against a healthy cluster.
    let healthy = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let mut queue = TimeoutQueue::default();
    queue.report_timeout(7);
    queue.drain(|_chunk_id| {
        client::decompress(healthy.endpoint(), &container, TIMEOUT)
            .map(|out| out == jpeg)
            .unwrap_or(false)
    });
    assert_eq!(queue.cleared, 1, "three clean decodes delete the entry");
    assert_eq!(queue.paged, 0, "no human was woken");
    assert!(queue.is_empty());

    overloaded.shutdown();
    healthy.shutdown();
}

/// §5.7 at the system level: with the shutoff switch on, the *storage*
/// layer keeps admitting chunks — via Deflate — while the conversion
/// service refuses Lepton encodes; flipping the switch back restores
/// Lepton service with no operator action.
#[test]
fn shutoff_degrades_to_deflate_then_recovers() {
    let switch =
        std::env::temp_dir().join(format!("lepton-pipeline-shutoff-{}", std::process::id()));
    let _ = std::fs::remove_file(&switch);
    let service = serve(
        &tcp_any(),
        ServiceConfig {
            shutoff_file: Some(switch.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    let jpeg = clean_jpeg(&spec(), 9);

    // Engage the switch: the service refuses, and the caller does what
    // the blockserver does — store Deflate instead.
    std::fs::write(&switch, b"on").unwrap();
    let refusal = client::compress(service.endpoint(), &jpeg, TIMEOUT).unwrap_err();
    assert!(matches!(refusal, ClientError::Refused(Status::Shutdown)));
    let fallback = lepton::deflate::zlib_compress(&jpeg, lepton::deflate::Level::Default);
    assert_eq!(
        lepton::deflate::zlib_decompress(&fallback, jpeg.len()).unwrap(),
        jpeg,
        "durability holds through the degraded path"
    );

    // Disengage: full Lepton service resumes, and the Lepton form is
    // smaller than the Deflate fallback was.
    std::fs::remove_file(&switch).unwrap();
    let lepton = client::compress(service.endpoint(), &jpeg, TIMEOUT).unwrap();
    assert!(lepton.len() < fallback.len());
    assert_eq!(
        client::decompress(service.endpoint(), &lepton, TIMEOUT).unwrap(),
        jpeg
    );
    service.shutdown();
}

/// The serving path end to end: originals in the blockstore,
/// conversions over the wire, downloads byte-exact — storage and
/// service agreeing on the same container format.
#[test]
fn store_and_serve_agree_on_containers() {
    use lepton::storage::blockstore::{ShardedStore, StoreConfig};
    use lepton::storage::vfs::{FaultConfig, FaultVfs};
    use lepton::storage::StoredFormat;
    let service = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let vfs = FaultVfs::new(FaultConfig::default());
    let store = ShardedStore::open_on(vfs, "/store", StoreConfig::default()).unwrap();
    let jpeg = clean_jpeg(&spec(), 11);

    // Upload path: service compresses, store admits the original.
    let via_wire = client::compress(service.endpoint(), &jpeg, TIMEOUT).unwrap();
    let key = store.put(&jpeg).unwrap();
    assert_eq!(store.format_of(&key).unwrap(), Some(StoredFormat::Lepton));

    // The wire container decodes to what the store returns.
    assert_eq!(
        client::decompress(service.endpoint(), &via_wire, TIMEOUT).unwrap(),
        store.get(&key).unwrap().unwrap()
    );
    service.shutdown();
}
