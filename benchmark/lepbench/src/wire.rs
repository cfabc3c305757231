//! A framed (mux) client that reads response frames off the socket
//! itself, so the arrival of the first payload byte is observable —
//! `MuxClient::recv` returns only once the whole body is in memory.
//!
//! One request is in flight per connection at a time (closed loop), so
//! the response frame on the wire is always the one just asked for.

use lepton_server::protocol::{write_frame, FRAME_HEADER_LEN};
use lepton_server::{Conn, Endpoint, Op, Status, MUX_MAGIC};
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// One timed request/response exchange.
#[derive(Debug)]
pub struct Reply {
    /// Response status.
    pub status: Status,
    /// Response body.
    pub body: Vec<u8>,
    /// Request start → last response byte.
    pub total: Duration,
    /// Request start → arrival of the payload byte at the offset the
    /// caller asked about (the whole response, for a shorter body).
    pub first_byte: Duration,
}

/// A framed-mode connection.
#[derive(Debug)]
pub struct FramedConn {
    conn: Conn,
    next_id: u32,
}

impl FramedConn {
    /// Connect and switch the connection into framed mode.
    pub fn connect(ep: &Endpoint, timeout: Duration) -> io::Result<FramedConn> {
        let mut conn = ep.connect(Some(timeout))?;
        conn.write_all(&[MUX_MAGIC])?;
        conn.flush()?;
        Ok(FramedConn { conn, next_id: 0 })
    }

    /// Send one request and read its response, timing the last byte
    /// and the byte at payload offset `first_at` from just before the
    /// request is written. A conversion passes the JPEG header's
    /// length: the header is a copy, the byte after it is the first
    /// one that had to be decoded.
    pub fn call(&mut self, op: Op, payload: &[u8], first_at: usize) -> io::Result<Reply> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1) % u32::MAX;
        let start = Instant::now();
        write_frame(&mut self.conn, id, op.to_wire(), payload)?;

        let mut header = [0u8; FRAME_HEADER_LEN];
        self.conn.read_exact(&mut header)?;
        let got = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")) as usize;
        if got != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response for frame {got}, expected {id}"),
            ));
        }
        let status = Status::from_wire(header[4])
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown status byte"))?;

        let mut body = vec![0u8; len];
        let mut filled = 0;
        let mut first_byte = None;
        while filled < len {
            match self.conn.read(&mut body[filled..])? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => {
                    filled += n;
                    if filled > first_at {
                        first_byte.get_or_insert_with(|| start.elapsed());
                    }
                }
            }
        }
        let total = start.elapsed();
        Ok(Reply {
            status,
            body,
            total,
            first_byte: first_byte.unwrap_or(total),
        })
    }
}
