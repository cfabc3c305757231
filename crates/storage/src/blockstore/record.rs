//! How a block sits on disk, known nowhere else in the store: a record
//! is `LBS1 | format byte | original length (LE u64) | payload`, and a
//! shard directory holds records named `<hex>` (the block's address),
//! quarantine tombstones `<hex>.corrupt`, and `.tmp-<pid>-<n>` files a
//! write has not yet renamed into place.

use super::parse_hex;
use crate::sha256::{hex, Digest};
use crate::StoredFormat;
use std::io::{self, Read};

const MAGIC: [u8; 4] = *b"LBS1";
const TOMBSTONE_SUFFIX: &str = ".corrupt";
const TMP_PREFIX: &str = ".tmp-";

/// Header bytes before the payload: magic, format byte, original length.
pub(super) const HEADER_LEN: usize = 4 + 1 + 8;

/// A record header: how the payload is encoded and how long the
/// original block is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Header {
    pub(super) format: StoredFormat,
    pub(super) original_len: u64,
}

impl Header {
    pub(super) fn to_bytes(self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        b[..4].copy_from_slice(&MAGIC);
        b[4] = match self.format {
            StoredFormat::Lepton => b'L',
            StoredFormat::Deflate => b'Z',
            StoredFormat::Raw => b'R',
        };
        b[5..].copy_from_slice(&self.original_len.to_le_bytes());
        b
    }

    /// Read the header at the start of `r`. `Ok(None)` means the header
    /// is damaged: truncated, a bad magic or an unknown format byte. A
    /// genuine I/O failure stays an error, never misreported as damage.
    pub(super) fn read(r: &mut impl Read) -> io::Result<Option<Header>> {
        let mut b = [0u8; HEADER_LEN];
        match r.read_exact(&mut b) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let format = match b[4] {
            b'L' => StoredFormat::Lepton,
            b'Z' => StoredFormat::Deflate,
            b'R' => StoredFormat::Raw,
            _ => return Ok(None),
        };
        let original_len = u64::from_le_bytes(b[5..].try_into().expect("8 bytes"));
        Ok((b[..4] == MAGIC).then_some(Header {
            format,
            original_len,
        }))
    }

    /// Whether a payload of `payload_len` bytes can follow this header
    /// (knowable without decoding only for a raw one).
    pub(super) fn fits(self, payload_len: u64) -> bool {
        self.format != StoredFormat::Raw || payload_len == self.original_len
    }
}

/// What a name in a shard directory is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Entry {
    /// `<hex>`: the record of the block with this address.
    Block(Digest),
    /// `<hex>.corrupt`: a quarantined record of this address.
    Tombstone(Digest),
    /// `.tmp-*`: a write not yet renamed into place, or its orphan.
    Tmp,
    /// Anything else; every walk leaves it alone.
    Other,
}

impl Entry {
    pub(super) fn classify(name: &str) -> Entry {
        // Exact builder names only; `parse_hex` also reads case and padding.
        let key = |s: &str| parse_hex(s).filter(|k| hex(k) == s);
        if name.starts_with(TMP_PREFIX) {
            return Entry::Tmp;
        }
        match name.strip_suffix(TOMBSTONE_SUFFIX) {
            Some(stem) => key(stem).map_or(Entry::Other, Entry::Tombstone),
            None => key(name).map_or(Entry::Other, Entry::Block),
        }
    }
}

pub(super) fn block_name(key: &Digest) -> String {
    hex(key)
}

pub(super) fn tombstone_name(key: &Digest) -> String {
    format!("{}{TOMBSTONE_SUFFIX}", hex(key))
}

/// A temp name unique to this process and its `n`th write.
pub(super) fn tmp_name(n: u64) -> String {
    format!("{TMP_PREFIX}{}-{n}", std::process::id())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    #[test]
    fn names_classify_back_to_their_builders() {
        let key = sha256(b"a block");
        assert_eq!(Entry::classify(&block_name(&key)), Entry::Block(key));
        assert_eq!(
            Entry::classify(&tombstone_name(&key)),
            Entry::Tombstone(key)
        );
        assert_eq!(Entry::classify(&tmp_name(7)), Entry::Tmp);
        // `parse_hex` reads these, but no builder makes them: they name
        // some other file, not the block's record.
        let upper = hex(&key).to_uppercase();
        for other in [
            "GEOMETRY".to_string(),
            "zz.corrupt".to_string(),
            hex(&key)[1..].to_string(),
            upper.clone(),
            format!("{}\n", hex(&key)),
            format!(" {}", hex(&key)),
            format!("{upper}.corrupt"),
        ] {
            assert_eq!(Entry::classify(&other), Entry::Other, "{other:?}");
        }
    }

    #[test]
    fn header_reads_back_what_it_writes() {
        for format in [
            StoredFormat::Lepton,
            StoredFormat::Deflate,
            StoredFormat::Raw,
        ] {
            let h = Header {
                format,
                original_len: 0x0102_0304_0506_0708,
            };
            let bytes = h.to_bytes();
            assert_eq!(&bytes[..4], b"LBS1");
            assert_eq!(&bytes[5..], &h.original_len.to_le_bytes());
            assert_eq!(Header::read(&mut &bytes[..]).unwrap(), Some(h));
        }
    }
}
