//! The production service layer over real sockets (§5.5): one
//! conversion service on a Unix-domain socket, as a blockserver's
//! local Lepton process, and one on TCP, as a machine another
//! blockserver connects to. A burst of uploads is split across the
//! two, and each service's telemetry is read back over the wire.
//!
//! Where a conversion *should* run (local, to self, to dedicated) is
//! modelled by `lepton_cluster::sim`, which drives the Fig. 9, 10 and
//! 14 harnesses; this example shows the transport those choices use.
//!
//! Run with: `cargo run --release --example conversion_service`

use lepton::corpus::builder::{clean_jpeg, CorpusSpec};
use lepton::server::{client, serve, Endpoint, ServiceConfig};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

fn main() {
    // The local blockserver's Lepton process: listening on a UDS, as
    // in production ("Lepton operates by listening on a Unix-domain
    // socket for files").
    let sock = std::env::temp_dir().join(format!("lepton-example-{}.sock", std::process::id()));
    let uds = serve(&Endpoint::uds(&sock), ServiceConfig::default()).expect("bind UDS service");
    // A remote machine: the same protocol over TCP ("the blockserver
    // instead will make a TCP connection to a machine tagged for
    // outsourcing").
    let tcp = serve(
        &Endpoint::tcp("127.0.0.1:0").expect("loopback"),
        ServiceConfig::default(),
    )
    .expect("bind TCP service");
    let services = [("uds", &uds), ("tcp", &tcp)];
    for (name, h) in services {
        println!("{name} service: {}", h.endpoint());
    }

    // A burst of photo uploads, all in flight at once, alternating
    // between the two services.
    let spec = CorpusSpec {
        min_dim: 320,
        max_dim: 512,
        ..Default::default()
    };
    let photos: Vec<Vec<u8>> = (0..8).map(|s| clean_jpeg(&spec, 1000 + s)).collect();

    println!("\nconverting {} uploads concurrently...", photos.len());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (i, jpeg) in photos.iter().enumerate() {
            let (name, h) = services[i % services.len()];
            let ep = h.endpoint().clone();
            scope.spawn(move || {
                let lepton = client::compress(&ep, jpeg, TIMEOUT).expect("conversion");
                let back = lepton::codec::decompress(&lepton).expect("decode");
                assert_eq!(&back, jpeg, "byte-exact through the wire");
                println!(
                    "  upload {i}: {:>7} -> {:>7} bytes  [{name}]",
                    jpeg.len(),
                    lepton.len()
                );
            });
        }
    });
    println!("burst done in {:?}\n", start.elapsed());

    // Each service served its half, and says so over the wire too.
    for (name, h) in services {
        let served = h.metrics().served.get();
        assert_eq!(served, 4, "{name} served its half of the burst");
        client::ping(h.endpoint(), TIMEOUT).expect("ping");
        let snap = client::probe_snapshot(h.endpoint(), TIMEOUT).expect("stats probe");
        assert_eq!(snap.counter("server.served"), served);
        println!(
            "{name}: served {served} (high water {}); snapshot: {} metrics, \
             {} active, degraded {}",
            h.gauge().high_water(),
            snap.entries.len(),
            snap.gauge("server.conversions.active"),
            snap.degraded()
        );
    }

    uds.shutdown();
    tcp.shutdown();
    println!("all services drained and stopped ✓");
}
