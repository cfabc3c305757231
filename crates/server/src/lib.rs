//! # lepton-server — the blockserver conversion service
//!
//! The paper's production Lepton is not a library call: it is a
//! process that "operates by listening on a Unix-domain socket for
//! files", and when the local machine is overloaded the blockserver
//! "will make a TCP connection to a machine tagged for outsourcing"
//! instead (§5.5). This crate is that service layer, transport and
//! all. It serves whatever connects; the choice of *where* a
//! conversion runs (local, to self, to dedicated) is modelled once,
//! by `lepton_cluster::sim`, which drives the Fig. 9, 10 and 14
//! harnesses.
//!
//! * [`protocol`] — the wire protocol in both modes: legacy
//!   one-conversion-per-connection (op byte, payload, half-close;
//!   status byte, payload, close) and framed multiplexed (pipelined
//!   frames, out-of-order responses), with the §6.2 exit-code
//!   taxonomy on rejections.
//! * [`endpoint`] — Unix-domain socket and TCP transports behind one
//!   [`endpoint::Endpoint`] type.
//! * [`server`] — the worker-pooled multiplexing core: bounded
//!   connection cap, bounded job queue, bounded in-flight bytes per
//!   connection, admission control that sheds compress-side work with
//!   a fast typed [`Status::Overloaded`] when the codec engine is
//!   saturated (conversions oversubscribe the machine exactly as the
//!   paper's blockservers did — that is what makes outsourcing
//!   necessary), per-IO timeouts, bounded request sizes,
//!   shutoff-switch file (§5.7), graceful drain on shutdown.
//! * [`client`] — blocking one-shot conversion client with timeout
//!   classification for the §6.6 "exceeded the timeout window" path,
//!   blockstore access (`block_put`/`block_get`/`block_stat`), and
//!   [`client::MuxClient`] for pipelining many requests over one
//!   connection.
//!
//! ```no_run
//! use lepton_server::{serve, Endpoint, ServiceConfig};
//! use std::time::Duration;
//!
//! let ep = Endpoint::uds("/tmp/lepton.sock");
//! let handle = serve(&ep, ServiceConfig::default()).unwrap();
//! let jpeg = std::fs::read("photo.jpg").unwrap();
//! let lepton =
//!     lepton_server::client::compress(handle.endpoint(), &jpeg, Duration::from_secs(30))
//!         .unwrap();
//! assert!(lepton.len() < jpeg.len());
//! handle.shutdown();
//! ```

pub mod client;
pub mod endpoint;
pub mod gauge;
pub mod protocol;
pub mod server;

pub use client::{retry_with_backoff, ClientError, MuxClient, RetryPolicy};
pub use endpoint::{Conn, Endpoint, Listener};
pub use gauge::ConcurrencyGauge;
pub use protocol::{Frame, Op, Status, MUX_MAGIC};
pub use server::{serve, ServiceConfig, ServiceHandle, ServiceMetrics};
