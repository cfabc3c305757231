//! # lepton — facade crate
//!
//! A from-scratch Rust reproduction of **Lepton** (Horn et al., NSDI '17):
//! transparent, lossless, streaming recompression of baseline JPEG files
//! for a distributed file-storage backend.
//!
//! This crate re-exports the workspace's public API:
//!
//! * [`codec`] — the Lepton codec itself: [`codec::compress`],
//!   [`codec::decompress`], and streaming decode into a
//!   [`codec::DecodeSink`]. The encoder writes whole-file containers;
//!   the decoder also reads the chunk containers earlier builds wrote.
//! * [`jpeg`] — the baseline JPEG substrate (parser, Huffman scan codec,
//!   DCT, pixel encoder).
//! * [`model`] — the adaptive probability model (7x7 AC, Lakhani edges,
//!   DC gradient prediction).
//! * [`arith`] — the binary range coder and statistic bins.
//! * [`deflate`] — Deflate/zlib, used for JPEG headers and as fallback.
//! * [`baselines`] — the comparison codecs from the paper's evaluation.
//! * [`storage`] — the content-addressed block store
//!   ([`storage::blockstore::ShardedStore`]): transparent Lepton
//!   recompression behind round-trip admission control, on disk or —
//!   over an in-memory `Vfs` — with no filesystem at all.
//! * [`fleet`] — the replicated block fleet: a seeded consistent-hash
//!   gateway over live blockserver nodes with failover, read-repair,
//!   health ejection, and a rebalance driver.
//! * [`cluster`] — the deployment simulator (outsourcing, backfill,
//!   THP stalls) behind the paper's §5–§6 figures; the repo's one
//!   model of §5.5's outsourcing decision.
//! * [`corpus`] — deterministic synthetic JPEG corpus generation.
//! * [`server`] — the production service layer (§5.5): Unix-domain
//!   socket and TCP conversion service, multiplexed serving core,
//!   admission control, shutoff switch.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and experiment index.

pub use lepton_arith as arith;
pub use lepton_baselines as baselines;
pub use lepton_cluster as cluster;
pub use lepton_core as codec;
pub use lepton_corpus as corpus;
pub use lepton_deflate as deflate;
pub use lepton_fleet as fleet;
pub use lepton_jpeg as jpeg;
pub use lepton_model as model;
pub use lepton_server as server;
pub use lepton_storage as storage;
