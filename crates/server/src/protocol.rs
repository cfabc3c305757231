//! The conversion-service wire protocol.
//!
//! The paper's production deployment is deliberately minimal (§5.5):
//! a blockserver connects to a local Lepton process over a Unix-domain
//! socket (or, when outsourcing, to a remote machine over TCP), writes
//! the file, and half-closes; the service writes the converted bytes
//! back and closes. "The file is complete once the socket is shut down
//! for writing."
//!
//! We keep exactly that shape and add the two bytes the paper leaves
//! implicit: a leading *op* byte on the request (so one port serves
//! conversions, block reads and writes, and probes) and a leading
//! *status* byte on the response (so a client can tell a converted
//! payload from a rejection without sniffing magic numbers).
//!
//! ```text
//! request  = op:u8  payload:*    EOF(shutdown write)
//! response = status:u8 payload:* EOF(close)
//! ```
//!
//! Rejection statuses carry the §6.2 exit-code taxonomy so the caller
//! can account for them exactly like the production exit-code table.
//!
//! # Framed (multiplexed) mode
//!
//! The one-conversion-per-connection shape cannot pipeline: the
//! request end is marked by half-close, so a second request needs a
//! second connection. A client that wants pipelining sends the
//! [`MUX_MAGIC`] byte (`'M'`, unused by any legacy op) as its *first*
//! byte instead of an op; the connection then switches to a framed
//! protocol for its whole lifetime:
//!
//! ```text
//! request frame  = id:u32le op:u8     len:u32le payload[len]
//! response frame = id:u32le status:u8 len:u32le payload[len]
//! ```
//!
//! Frame ids are chosen by the client and echoed back verbatim;
//! responses may complete **out of order** (the whole point — a small
//! ping never queues behind a large conversion), so the id is the only
//! correlation. Legacy clients are untouched: a connection that opens
//! with any other byte gets the classic half-close protocol.
//!
//! A frame's payload need not arrive in one piece: the server writes a
//! `Decompress` body as it decodes, header first. A failure after the
//! header cannot be re-typed, so the server closes the connection
//! instead — a reader that hits EOF inside a payload (`read_exact`'s
//! `UnexpectedEof`) has an aborted response, never a short valid one.

use lepton_core::ExitCode;
use lepton_storage::blockstore::StoreStats;
use std::io::{self, IoSlice, Read, Write};

/// Request operation, the first byte on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// JPEG in, Lepton container out.
    Compress,
    /// Lepton container in, original JPEG bytes out.
    Decompress,
    /// No payload; empty OK response. Liveness probe.
    Ping,
    /// No payload; returns a versioned telemetry snapshot
    /// (`lepton_obs::Snapshot` wire format v2: length-prefixed
    /// key/value metrics plus sparse histogram buckets). The service's
    /// one stats op; the name and the `V` byte date from when a fixed
    /// 24-byte v1 reply (byte `S`, now an unknown op) sat beside it.
    StatsV2,
    /// Block bytes in, 32-byte content address out: store a block in
    /// the service's blockstore (compress-on-write is transparent —
    /// the address is the SHA-256 of what was sent).
    BlockPut,
    /// 32-byte content address in, original block bytes out.
    BlockGet,
    /// No payload; returns the service blockstore's [`StoreStats`]
    /// (see [`block_stat_to_wire`]).
    BlockStat,
    /// No payload; returns every block address in the service's
    /// blockstore as concatenated 32-byte digests. What a fleet
    /// rebalance driver walks to find blocks whose replica set
    /// changed.
    ///
    /// The reply is a single unpaginated body, so a client's response
    /// budget caps how many keys it can list (the default 64 MiB
    /// buffers ~2M addresses). Stores beyond that need a paginated
    /// listing op — future work; until then the client surfaces the
    /// overflow as a non-transient `InvalidData` error.
    BlockList,
}

impl Op {
    /// Wire encoding.
    pub fn to_wire(self) -> u8 {
        match self {
            Op::Compress => b'C',
            Op::Decompress => b'D',
            Op::Ping => b'P',
            Op::StatsV2 => b'V',
            Op::BlockPut => b'B',
            Op::BlockGet => b'G',
            Op::BlockStat => b'T',
            Op::BlockList => b'L',
        }
    }

    /// Decode a wire byte.
    pub fn from_wire(b: u8) -> Option<Op> {
        match b {
            b'C' => Some(Op::Compress),
            b'D' => Some(Op::Decompress),
            b'P' => Some(Op::Ping),
            b'V' => Some(Op::StatsV2),
            b'B' => Some(Op::BlockPut),
            b'G' => Some(Op::BlockGet),
            b'T' => Some(Op::BlockStat),
            b'L' => Some(Op::BlockList),
            _ => None,
        }
    }

    /// Every op, in wire-introduction order. Drives per-op metric
    /// arrays and exhaustiveness tests.
    pub const ALL: [Op; 8] = [
        Op::Compress,
        Op::Decompress,
        Op::Ping,
        Op::StatsV2,
        Op::BlockPut,
        Op::BlockGet,
        Op::BlockStat,
        Op::BlockList,
    ];

    /// Stable lowercase label used in metric names
    /// (`server.op.<name>.latency_us`).
    pub fn name(self) -> &'static str {
        match self {
            Op::Compress => "compress",
            Op::Decompress => "decompress",
            Op::Ping => "ping",
            Op::StatsV2 => "stats_v2",
            Op::BlockPut => "block_put",
            Op::BlockGet => "block_get",
            Op::BlockStat => "block_stat",
            Op::BlockList => "block_list",
        }
    }

    /// Dense index into [`Op::ALL`], for per-op metric arrays.
    pub fn index(self) -> usize {
        match self {
            Op::Compress => 0,
            Op::Decompress => 1,
            Op::Ping => 2,
            Op::StatsV2 => 3,
            Op::BlockPut => 4,
            Op::BlockGet => 5,
            Op::BlockStat => 6,
            Op::BlockList => 7,
        }
    }
}

/// Response status, the first byte on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Conversion succeeded; payload follows.
    Ok,
    /// Request malformed (unknown op, empty compress body, …).
    BadRequest,
    /// Request exceeded the service's size budget.
    TooLarge,
    /// The shutoff switch is engaged; caller should fall back to
    /// Deflate (§5.7).
    Shutdown,
    /// The conversion exceeded the request timeout (§6.6).
    Timeout,
    /// Blockstore read: no block at the requested address.
    NotFound,
    /// Server-side storage failure (I/O error, or a block whose
    /// on-disk record failed its integrity check — corrupted blocks
    /// are refused, never served).
    StorageFailed,
    /// Admission control shed this request: the conversion backlog is
    /// past the configured depth and queueing more work would only
    /// grow latency. Unlike [`Status::Rejected`] this says nothing
    /// about the input — retry after backoff, ideally elsewhere.
    Overloaded,
    /// The store is latched read-only (ENOSPC or a failed fsync).
    /// Writes are shed; reads still serve. Transient from the
    /// client's perspective — retry elsewhere in the fleet.
    ReadOnly,
    /// The input was rejected; carries the exit-code taxonomy row.
    Rejected(ExitCode),
}

/// Offset added to [`ExitCode`] indices in the wire encoding, leaving
/// room for protocol-level statuses below it.
const REJECT_BASE: u8 = 0x10;

fn exit_code_index(code: ExitCode) -> u8 {
    EXIT_CODES.iter().position(|c| *c == code).unwrap_or(0) as u8
}

/// All exit codes, in the paper's table order (§6.2); the wire index.
pub const EXIT_CODES: [ExitCode; 18] = [
    ExitCode::Success,
    ExitCode::Progressive,
    ExitCode::UnsupportedJpeg,
    ExitCode::NotAnImage,
    ExitCode::FourColorCmyk,
    ExitCode::MemDecodeLimit,
    ExitCode::MemEncodeLimit,
    ExitCode::ServerShutdown,
    ExitCode::Impossible,
    ExitCode::AbortSignal,
    ExitCode::Timeout,
    ExitCode::ChromaSubsampleBig,
    ExitCode::AcOutOfRange,
    ExitCode::RoundtripFailed,
    ExitCode::OomKill,
    ExitCode::OperatorInterrupt,
    ExitCode::StorageFull,
    ExitCode::ReadOnlyStore,
];

impl Status {
    /// Wire encoding.
    pub fn to_wire(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::BadRequest => 1,
            Status::TooLarge => 2,
            Status::Shutdown => 3,
            Status::Timeout => 4,
            Status::NotFound => 5,
            Status::StorageFailed => 6,
            Status::Overloaded => 7,
            Status::ReadOnly => 8,
            Status::Rejected(code) => REJECT_BASE + exit_code_index(code),
        }
    }

    /// Decode a wire byte.
    pub fn from_wire(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::BadRequest),
            2 => Some(Status::TooLarge),
            3 => Some(Status::Shutdown),
            4 => Some(Status::Timeout),
            5 => Some(Status::NotFound),
            6 => Some(Status::StorageFailed),
            7 => Some(Status::Overloaded),
            8 => Some(Status::ReadOnly),
            b if b >= REJECT_BASE => EXIT_CODES
                .get((b - REJECT_BASE) as usize)
                .map(|c| Status::Rejected(*c)),
            _ => None,
        }
    }

    /// True for `Ok`.
    pub fn is_ok(self) -> bool {
        self == Status::Ok
    }
}

/// Size of the [`Op::BlockStat`] reply, a layout frozen across builds:
/// the seven [`StoreStats`] fields in order, field `i` a LE u64 at `8 * i`.
pub const BLOCK_STAT_LEN: usize = 56;

/// Encode a store summary as the [`Op::BlockStat`] reply.
pub fn block_stat_to_wire(s: &StoreStats) -> Vec<u8> {
    [
        s.blocks,
        s.lepton_blocks,
        s.raw_blocks,
        s.logical_bytes,
        s.stored_bytes,
        s.cache_hits,
        s.cache_misses,
    ]
    .iter()
    .flat_map(|v| v.to_le_bytes())
    .collect()
}

/// Decode an [`Op::BlockStat`] reply; `None` unless it is exactly
/// [`BLOCK_STAT_LEN`] bytes.
pub fn block_stat_from_wire(b: &[u8]) -> Option<StoreStats> {
    if b.len() != BLOCK_STAT_LEN {
        return None;
    }
    let le64 = |i: usize| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    Some(StoreStats {
        blocks: le64(0),
        lepton_blocks: le64(1),
        raw_blocks: le64(2),
        logical_bytes: le64(3),
        stored_bytes: le64(4),
        cache_hits: le64(5),
        cache_misses: le64(6),
    })
}

/// Read a request (op byte + payload-until-EOF) from a stream whose
/// peer half-closes to mark the end, enforcing `max_payload`.
///
/// Returns `Ok(None)` if the peer closed before sending an op byte.
pub fn read_request<R: Read>(
    stream: &mut R,
    max_payload: usize,
) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut op = [0u8; 1];
    let mut got = 0;
    while got < 1 {
        match stream.read(&mut op)? {
            0 => return Ok(None),
            n => got += n,
        }
    }
    let payload = read_bounded(stream, max_payload)?;
    Ok(Some((op[0], payload)))
}

/// Read until EOF but never buffer more than `max` bytes; a payload
/// exceeding the bound is an `InvalidData` error (the SECCOMP-era
/// discipline: input size is policed before it becomes memory, §5.1).
pub fn read_bounded<R: Read>(stream: &mut R, max: usize) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 << 10];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(buf);
        }
        if buf.len() + n > max {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request exceeds size budget",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Write a response: status byte then payload, in one vectored write
/// as [`write_frame`] sends a frame (two writes are the Nagle ×
/// delayed-ACK stall). The caller closes (or drops) the stream to mark
/// completion.
pub fn write_response<W: Write>(stream: &mut W, status: Status, payload: &[u8]) -> io::Result<()> {
    write_all_vectored(stream, &[status.to_wire()], payload)?;
    stream.flush()
}

/// First byte of a connection that wants the framed multiplexed
/// protocol instead of the legacy one-conversion-per-connection shape.
/// Deliberately outside the legacy op alphabet so the two modes cannot
/// be confused.
pub const MUX_MAGIC: u8 = b'M';

/// Fixed bytes before a frame's payload: `id:u32le byte:u8 len:u32le`.
pub const FRAME_HEADER_LEN: usize = 9;

/// One frame of the multiplexed protocol, either direction: the
/// client's `byte` is an op, the server's a status.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Client-chosen correlation id, echoed verbatim on the response.
    pub id: u32,
    /// Op byte (requests) or status byte (responses).
    pub byte: u8,
    /// The frame body.
    pub payload: Vec<u8>,
}

/// Read one frame's fixed bytes: `(id, op-or-status byte, payload
/// length)`. `Ok(None)` means the peer closed cleanly at a frame
/// boundary; a partial header is an `UnexpectedEof` error.
pub fn read_frame_header<R: Read>(stream: &mut R) -> io::Result<Option<(u32, u8, usize)>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < header.len() {
        match stream.read(&mut header[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame-header",
                ))
            }
            n => got += n,
        }
    }
    let id = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let len = u32::from_le_bytes(header[5..9].try_into().unwrap()) as usize;
    Ok(Some((id, header[4], len)))
}

/// Read one frame. `Ok(None)` means the peer closed cleanly at a frame
/// boundary. A declared length above `max_payload` is refused
/// (`InvalidData`) *before* any allocation — the §5.1 discipline: input
/// size is policed before it becomes memory.
pub fn read_frame<R: Read>(stream: &mut R, max_payload: usize) -> io::Result<Option<Frame>> {
    let Some((id, byte, len)) = read_frame_header(stream)? else {
        return Ok(None);
    };
    if len > max_payload {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds size budget",
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(Frame { id, byte, payload }))
}

/// The fixed bytes of a frame whose payload is `len` bytes long.
pub(crate) fn frame_header(id: u32, byte: u8, len: u32) -> [u8; FRAME_HEADER_LEN] {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..4].copy_from_slice(&id.to_le_bytes());
    header[4] = byte;
    header[5..9].copy_from_slice(&len.to_le_bytes());
    header
}

/// `write_all` for two buffers: one vectored write while both have
/// bytes left (a socket then sees header and body in the same
/// segment — two writes are the Nagle × delayed-ACK stall), and a
/// remainder loop for short writes.
pub(crate) fn write_all_vectored<W: Write>(
    stream: &mut W,
    mut head: &[u8],
    mut body: &[u8],
) -> io::Result<()> {
    while !head.is_empty() {
        match stream.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) if n >= head.len() => {
                body = &body[n - head.len()..];
                head = &[];
            }
            Ok(n) => head = &head[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.write_all(body)
}

/// Write one frame (either direction) and flush it.
pub fn write_frame<W: Write>(stream: &mut W, id: u32, byte: u8, payload: &[u8]) -> io::Result<()> {
    let header = frame_header(id, byte, payload.len() as u32);
    write_all_vectored(stream, &header, payload)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_wire_roundtrip() {
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(Op::from_wire(op.to_wire()), Some(op));
            assert_eq!(op.index(), i, "ALL order matches index()");
        }
        assert_eq!(Op::from_wire(b'X'), None);
        assert_eq!(Op::from_wire(b'S'), None, "the retired v1 stats byte");
        assert_eq!(Op::from_wire(0), None);
    }

    #[test]
    fn status_wire_roundtrip() {
        let mut statuses = vec![
            Status::Ok,
            Status::BadRequest,
            Status::TooLarge,
            Status::Shutdown,
            Status::Timeout,
            Status::NotFound,
            Status::StorageFailed,
            Status::Overloaded,
            Status::ReadOnly,
        ];
        statuses.extend(EXIT_CODES.iter().map(|c| Status::Rejected(*c)));
        for s in statuses {
            assert_eq!(Status::from_wire(s.to_wire()), Some(s), "{s:?}");
        }
    }

    #[test]
    fn status_wire_rejects_gaps_and_overflow() {
        assert_eq!(Status::from_wire(9), None);
        assert_eq!(Status::from_wire(0x0f), None);
        assert_eq!(
            Status::from_wire(REJECT_BASE + EXIT_CODES.len() as u8),
            None
        );
        assert_eq!(Status::from_wire(0xff), None);
    }

    #[test]
    fn exit_codes_map_to_distinct_wire_bytes() {
        let mut seen = std::collections::BTreeSet::new();
        for c in EXIT_CODES {
            assert!(seen.insert(Status::Rejected(c).to_wire()));
        }
        assert_eq!(seen.len(), EXIT_CODES.len());
    }

    #[test]
    fn block_stat_reply_roundtrip() {
        let s = StoreStats {
            blocks: 12,
            lepton_blocks: 9,
            raw_blocks: 3,
            logical_bytes: 1 << 33,
            stored_bytes: 3 << 30,
            cache_hits: 77,
            cache_misses: 13,
        };
        // Pinned as bytes, not only by a round trip: builds of mixed
        // versions read each field at its offset.
        let mut want = [0u8; BLOCK_STAT_LEN];
        want[0] = 12; // blocks
        want[8] = 9; // lepton_blocks
        want[16] = 3; // raw_blocks
        want[24 + 4] = 2; // logical_bytes, 1 << 33
        want[32 + 3] = 0xC0; // stored_bytes, 3 << 30
        want[40] = 77; // cache_hits
        want[48] = 13; // cache_misses
        assert_eq!(block_stat_to_wire(&s), want);
        assert_eq!(block_stat_from_wire(&want), Some(s));
        assert_eq!(block_stat_from_wire(&want[..55]), None);
        assert_eq!(block_stat_from_wire(&[0u8; 57]), None);
    }

    #[test]
    fn read_request_parses_op_and_body() {
        let mut wire: &[u8] = b"Chello";
        let (op, body) = read_request(&mut wire, 1 << 20).unwrap().unwrap();
        assert_eq!(op, b'C');
        assert_eq!(body, b"hello");
    }

    #[test]
    fn read_request_empty_stream_is_none() {
        let mut wire: &[u8] = b"";
        assert!(read_request(&mut wire, 1 << 20).unwrap().is_none());
    }

    #[test]
    fn read_bounded_enforces_budget() {
        let big = vec![0u8; 4096];
        let mut s: &[u8] = &big;
        assert!(read_bounded(&mut s, 4095).is_err());
        let mut s: &[u8] = &big;
        assert_eq!(read_bounded(&mut s, 4096).unwrap().len(), 4096);
    }

    #[test]
    fn write_response_prefixes_status() {
        let mut out = Vec::new();
        write_response(&mut out, Status::Rejected(ExitCode::Progressive), b"p").unwrap();
        assert_eq!(out[0], Status::Rejected(ExitCode::Progressive).to_wire());
        assert_eq!(&out[1..], b"p");
    }

    #[test]
    fn mux_magic_is_not_a_legacy_op() {
        assert_eq!(Op::from_wire(MUX_MAGIC), None, "mode byte must be free");
    }

    #[test]
    fn frame_roundtrip_and_clean_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, Op::Compress.to_wire(), b"body").unwrap();
        write_frame(&mut wire, 8, Status::Ok.to_wire(), &[]).unwrap();
        let mut r: &[u8] = &wire;
        let f1 = read_frame(&mut r, 1 << 20).unwrap().unwrap();
        assert_eq!(
            (f1.id, f1.byte, f1.payload.as_slice()),
            (7, b'C', &b"body"[..])
        );
        let f2 = read_frame(&mut r, 1 << 20).unwrap().unwrap();
        assert_eq!((f2.id, f2.byte, f2.payload.len()), (8, 0, 0));
        assert!(read_frame(&mut r, 1 << 20).unwrap().is_none(), "clean EOF");
    }

    /// A socket-like writer: takes at most `cap` bytes per call, across
    /// the buffers of a vectored write.
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut left = self.cap;
            for buf in bufs {
                let n = buf.len().min(left);
                self.out.extend_from_slice(&buf[..n]);
                left -= n;
            }
            Ok(self.cap - left)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_is_one_vectored_write_and_survives_short_ones() {
        let mut want = Vec::new();
        write_frame(&mut want, 9, b'D', b"streamed body").unwrap();
        for cap in [1, 4, FRAME_HEADER_LEN, FRAME_HEADER_LEN + 1, usize::MAX] {
            let mut w = Dribble {
                out: Vec::new(),
                cap,
                calls: 0,
            };
            write_frame(&mut w, 9, b'D', b"streamed body").unwrap();
            assert_eq!(w.out, want, "cap {cap}");
            if cap == usize::MAX {
                assert_eq!(w.calls, 1, "header and payload leave together");
            }
        }
        let mut full = Dribble {
            out: Vec::new(),
            cap: 0,
            calls: 0,
        };
        let err = write_frame(&mut full, 9, b'D', b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn response_is_one_vectored_write_and_survives_short_ones() {
        let status = Status::Rejected(ExitCode::Progressive);
        let mut want = Vec::new();
        write_response(&mut want, status, b"one-shot body").unwrap();
        for cap in [1, 2, usize::MAX] {
            let mut w = Dribble {
                out: Vec::new(),
                cap,
                calls: 0,
            };
            write_response(&mut w, status, b"one-shot body").unwrap();
            assert_eq!(w.out, want, "cap {cap}");
            if cap == usize::MAX {
                assert_eq!(w.calls, 1, "status and payload leave together");
            }
        }
        let mut full = Dribble {
            out: Vec::new(),
            cap: 0,
            calls: 0,
        };
        let err = write_response(&mut full, status, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn frame_length_is_policed_before_allocation() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, b'C', &[0u8; 100]).unwrap();
        let mut r: &[u8] = &wire;
        let err = read_frame(&mut r, 99).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, b'C', b"abcdef").unwrap();
        // Header cut short.
        let mut r: &[u8] = &wire[..4];
        assert!(read_frame(&mut r, 1 << 20).is_err());
        // Payload cut short.
        let mut r: &[u8] = &wire[..FRAME_HEADER_LEN + 2];
        assert!(read_frame(&mut r, 1 << 20).is_err());
    }
}
