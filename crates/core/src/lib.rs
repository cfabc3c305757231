//! # lepton-core — the Lepton codec
//!
//! Round-trip, format-aware recompression of baseline JPEG files
//! (Horn et al., NSDI '17). The Huffman entropy layer of a JPEG is
//! replaced by an adaptive binary arithmetic code driven by a large
//! context model; the original file is recovered **byte-exactly** on
//! decompression.
//!
//! ## API
//!
//! * [`compress`] / [`decompress`] — whole files, one container.
//!   [`decompress`] also reads the chunk containers the format admits
//!   (a byte range of a file, restored through Huffman handover words
//!   without the other ranges — the paper's 4-MiB storage chunks);
//!   this build writes none.
//! * [`decompress_into`] — the one decode implementation: output is
//!   pushed to a [`DecodeSink`] in file order while later thread
//!   segments are still decoding; the sink learns the validated output
//!   size before the first fragment and may refuse one to cancel the
//!   rest. [`decompress`], [`decompress_opts`] and
//!   [`decompress_streaming`] (an infallible closure sink) adapt it.
//! * [`Engine`] — the pre-spawned worker pool with reusable model
//!   arenas behind all of the above (§5.1). The free functions run on
//!   [`Engine::global`]; embedders needing an isolated thread budget
//!   can construct their own and call the same entry points on it.
//! * [`verify`] — round-trip verification and build qualification.
//!
//! ```
//! use lepton_core::{compress, decompress, CompressOptions};
//! # fn demo(jpeg: &[u8]) -> Result<(), lepton_core::LeptonError> {
//! let lepton = compress(jpeg, &CompressOptions::default())?;
//! assert!(lepton.len() < jpeg.len());
//! assert_eq!(decompress(&lepton)?, jpeg);
//! # Ok(()) }
//! ```
//!
//! ## Guarantees
//!
//! * **Transparency**: `decompress(compress(x)) == x` for every input
//!   that `compress` accepts, including files with trailing garbage,
//!   missing restart markers (App. A.3), and either pad-bit convention.
//!   With `CompressOptions::verify` (default), this is *checked* before
//!   a container is returned — the production admission rule (§5.7).
//! * **Determinism**: encode and decode use only integer arithmetic;
//!   the same input produces the same bytes on every platform, thread
//!   count, and run (§5.2).
//! * **Bounded decode memory**: decompression works row-by-row and
//!   never materializes coefficient planes (§1, §4.2).

mod decoder;
mod driver;
mod encoder;
pub mod engine;
mod error;
pub mod format;
pub mod security;
pub mod verify;

pub use decoder::{
    decompress, decompress_into, decompress_opts, decompress_streaming, DecodeError, DecodeSink,
    DecompressOptions,
};
pub use driver::{walk_segment, BlockOp, RingArena};
pub use encoder::{compress, compress_with_stats, CompressOptions, CompressStats, ThreadPolicy};
pub use engine::{Engine, EngineMetrics};
pub use error::{ExitCode, LeptonError};
pub use security::{BudgetStage, JobMeter, ResourceBudget};
