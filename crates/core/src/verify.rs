//! Round-trip verification and the qualification harness.
//!
//! Production Lepton never admits a chunk that fails to decode back to
//! its exact input, and "qualifies" each build by round-tripping a
//! billion files with independent decoder configurations before
//! deployment (§5.2, §5.7). This module is that machinery at library
//! scale: single-shot verification (two independent decodes of one
//! container must agree), a standalone round-trip check, and a corpus
//! qualification driver.
//!
//! `compress`'s own admission verify decodes each segment's stream
//! while it is encoded and checks the assembly (see `encoder`).
//! [`verify_roundtrip`] and [`qualify`] deliberately do not use it: they
//! compress unverified and decode the whole finished container with
//! `decompress`, an oracle independent of the streamed path.

use crate::decoder::{decompress_opts, DecompressOptions};
use crate::encoder::{compress_with_stats, CompressOptions};
use crate::error::{ExitCode, LeptonError};

/// Outcome of verifying one file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Compressed, decompressed, and byte-identical; carries the
    /// compressed size.
    Verified {
        /// Size of the verified Lepton container in bytes.
        compressed: usize,
    },
    /// Rejected up front (not a candidate for Lepton).
    Rejected(ExitCode),
    /// Compression succeeded but a round-trip failed — this is the
    /// "page a human" condition (§5.7).
    Alarm(&'static str),
}

/// Compress `jpeg` and verify it round-trips under both the encoding
/// thread policy and a single-threaded decode of the same container
/// (mirroring the production gcc/asan cross-check in spirit: two
/// independent decoder executions must agree).
pub fn verify_roundtrip(jpeg: &[u8], opts: &CompressOptions) -> Verdict {
    let mut opts = opts.clone();
    opts.verify = false; // we do our own, more thorough check
    let (lepton, _) = match compress_with_stats(jpeg, &opts) {
        Ok(x) => x,
        Err(e) => return Verdict::Rejected(ExitCode::classify(&e)),
    };
    let dopts = DecompressOptions {
        budget: opts.budget,
    };
    match decompress_opts(&lepton, &dopts) {
        Ok(out) if out == jpeg => {}
        Ok(_) => return Verdict::Alarm("roundtrip produced different bytes"),
        Err(_) => return Verdict::Alarm("decode of fresh container failed"),
    }
    // Second, independent decode must agree bit-for-bit with the first
    // (determinism check, §5.2).
    match decompress_opts(&lepton, &dopts) {
        Ok(out) if out == jpeg => Verdict::Verified {
            compressed: lepton.len(),
        },
        _ => Verdict::Alarm("second decode disagreed"),
    }
}

/// Check that `container` decompresses to exactly `original`: the §5.7
/// admission predicate as a standalone helper for a caller that already
/// holds a container. Only `tests/error_taxonomy.rs` calls it, to reach
/// the `RoundtripFailed` row with a constructed input. Returns
/// [`LeptonError::RoundtripFailed`] on a byte mismatch and passes decode
/// errors through.
pub fn check_roundtrip(
    original: &[u8],
    container: &[u8],
    opts: &DecompressOptions,
) -> Result<(), LeptonError> {
    let out = decompress_opts(container, opts)?;
    if out != original {
        return Err(LeptonError::RoundtripFailed);
    }
    Ok(())
}

/// Qualification summary over a corpus (the paper's pre-deployment
/// billion-image run, scaled down).
#[derive(Clone, Debug, Default)]
pub struct Qualification {
    /// Files that compressed and verified.
    pub verified: usize,
    /// Files rejected, by exit code.
    pub rejected: Vec<(ExitCode, usize)>,
    /// Alarm conditions (must be zero to qualify a build).
    pub alarms: usize,
    /// Total input bytes of verified files.
    pub bytes_in: u64,
    /// Total compressed bytes of verified files.
    pub bytes_out: u64,
}

impl Qualification {
    /// Does this run qualify the build (no alarms)?
    pub fn qualified(&self) -> bool {
        self.alarms == 0
    }

    /// Compression ratio over verified files.
    pub fn ratio(&self) -> f64 {
        if self.bytes_in == 0 {
            return 1.0;
        }
        self.bytes_out as f64 / self.bytes_in as f64
    }
}

/// Run qualification over a set of candidate files.
pub fn qualify<'a>(
    files: impl IntoIterator<Item = &'a [u8]>,
    opts: &CompressOptions,
) -> Qualification {
    let mut q = Qualification::default();
    let mut rejects: std::collections::BTreeMap<ExitCode, usize> = Default::default();
    for f in files {
        match verify_roundtrip(f, opts) {
            Verdict::Verified { compressed } => {
                q.verified += 1;
                q.bytes_in += f.len() as u64;
                q.bytes_out += compressed as u64;
            }
            Verdict::Rejected(code) => *rejects.entry(code).or_default() += 1,
            Verdict::Alarm(_) => q.alarms += 1,
        }
    }
    q.rejected = rejects.into_iter().collect();
    q
}
