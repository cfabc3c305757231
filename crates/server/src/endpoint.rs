//! Transport abstraction: Unix-domain sockets and TCP.
//!
//! Under normal operation the blockserver talks to a *local* Lepton
//! process over a Unix-domain socket; when outsourcing, it makes a TCP
//! connection to a machine in the same building instead (§5.5). Both
//! transports carry the same byte protocol, so everything above this
//! module is transport-agnostic.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a conversion service lives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix-domain socket path (local conversions).
    Uds(PathBuf),
    /// TCP address (outsourced conversions).
    Tcp(SocketAddr),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Uds(p) => write!(f, "uds:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl std::str::FromStr for Endpoint {
    type Err = io::Error;

    /// Parse the [`Display`](std::fmt::Display) form back:
    /// `uds:/path/to.sock` or `tcp:127.0.0.1:9000`. This is the format
    /// fleet manifest files store endpoints in.
    ///
    /// ```
    /// use lepton_server::Endpoint;
    ///
    /// let ep: Endpoint = "tcp:127.0.0.1:9000".parse().unwrap();
    /// assert_eq!(ep.to_string(), "tcp:127.0.0.1:9000");
    /// assert_eq!(
    ///     "uds:/tmp/lepton.sock".parse::<Endpoint>().unwrap(),
    ///     Endpoint::uds("/tmp/lepton.sock"),
    /// );
    /// assert!("smoke-signal:hilltop".parse::<Endpoint>().is_err());
    /// ```
    fn from_str(s: &str) -> io::Result<Endpoint> {
        if let Some(path) = s.strip_prefix("uds:") {
            if path.is_empty() {
                return Err(io::Error::new(io::ErrorKind::InvalidInput, "empty path"));
            }
            return Ok(Endpoint::uds(path));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            return Endpoint::tcp(addr);
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("endpoint {s:?} is neither uds: nor tcp:"),
        ))
    }
}

impl Endpoint {
    /// A UDS endpoint at `path`.
    pub fn uds(path: impl Into<PathBuf>) -> Endpoint {
        Endpoint::Uds(path.into())
    }

    /// A TCP endpoint; `addr` must resolve.
    pub fn tcp(addr: impl ToSocketAddrs) -> io::Result<Endpoint> {
        let a = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        Ok(Endpoint::Tcp(a))
    }

    /// Connect with a connect-phase timeout (TCP) and per-IO timeouts.
    pub fn connect(&self, io_timeout: Option<Duration>) -> io::Result<Conn> {
        let conn = match self {
            Endpoint::Uds(path) => Conn::Uds(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => {
                let s = match io_timeout {
                    Some(t) => TcpStream::connect_timeout(addr, t)?,
                    None => TcpStream::connect(addr)?,
                };
                // Frames are small and latency-bound, and a streamed body
                // is many short writes: none of them may wait in Nagle's
                // buffer for the peer's delayed ACK.
                s.set_nodelay(true)?;
                Conn::Tcp(s)
            }
        };
        conn.set_io_timeout(io_timeout)?;
        Ok(conn)
    }
}

/// A connected stream over either transport.
#[derive(Debug)]
pub enum Conn {
    /// Unix-domain socket stream.
    Uds(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    /// Apply a read+write timeout (None = blocking forever).
    pub fn set_io_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Uds(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
            Conn::Tcp(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
        }
    }

    /// Half-close the write side, signalling end-of-request; reads
    /// remain open for the response (§5.5's completion convention).
    pub fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.shutdown(std::net::Shutdown::Write),
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }

    /// Close both directions at once: the peer's pending and future
    /// reads see EOF and its writes fail. How the server aborts a
    /// response it can no longer finish honestly.
    pub(crate) fn shutdown_both(&self) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }

    /// A second handle onto the same socket. The multiplexed server
    /// splits a connection this way: the driver thread keeps reading
    /// request frames from one handle while pool workers write
    /// response frames through the other.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Uds(s) => s.try_clone().map(Conn::Uds),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    /// Close the read side, unblocking any thread sitting in a read on
    /// this socket (it sees EOF). The write side stays open, so
    /// responses already executing can still be delivered — this is
    /// how the server interrupts idle connections at shutdown without
    /// dropping in-flight work.
    pub fn shutdown_read(&self) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.shutdown(std::net::Shutdown::Read),
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Read),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Uds(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Uds(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    /// Forwarded so a frame's header and body reach the socket in one
    /// `writev` (the default would send only the first buffer).
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Conn::Uds(s) => s.write_vectored(bufs),
            Conn::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// A bound listener over either transport.
pub enum Listener {
    /// Bound Unix-domain socket (unlinked on drop).
    Uds(UnixListener, PathBuf),
    /// Bound TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Bind to an endpoint. `Tcp` endpoints may use port 0 to let the
    /// OS choose; interrogate [`Listener::endpoint`] for the result.
    pub fn bind(ep: &Endpoint) -> io::Result<Listener> {
        match ep {
            Endpoint::Uds(path) => {
                // A stale socket file from a crashed predecessor would
                // make bind fail; remove it (standard daemon practice).
                let _ = std::fs::remove_file(path);
                Ok(Listener::Uds(UnixListener::bind(path)?, path.clone()))
            }
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
        }
    }

    /// The endpoint this listener is actually bound to.
    pub fn endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Uds(_, path) => Ok(Endpoint::Uds(path.clone())),
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?)),
        }
    }

    /// Block until the next client connects.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Uds(l, _) => l.accept().map(|(s, _)| Conn::Uds(s)),
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?; // see `Endpoint::connect`
                Ok(Conn::Tcp(s))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_sock(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lepton-ep-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn uds_accept_connect_and_half_close() {
        let path = temp_sock("a");
        let listener = Listener::bind(&Endpoint::uds(&path)).unwrap();
        let ep = listener.endpoint().unwrap();
        let t = std::thread::spawn(move || {
            let mut server_side = listener.accept().unwrap();
            let mut got = Vec::new();
            server_side.read_to_end(&mut got).unwrap(); // EOF via half-close
            server_side.write_all(&got).unwrap();
            got
        });
        let mut c = ep.connect(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"ping").unwrap();
        c.shutdown_write().unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).unwrap();
        assert_eq!(back, b"ping");
        assert_eq!(t.join().unwrap(), b"ping");
    }

    #[test]
    fn tcp_ephemeral_port_reports_real_endpoint() {
        let listener = Listener::bind(&Endpoint::tcp("127.0.0.1:0").unwrap()).unwrap();
        let Endpoint::Tcp(addr) = listener.endpoint().unwrap() else {
            panic!("tcp listener must report tcp endpoint");
        };
        assert_ne!(addr.port(), 0);
        let t = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let mut b = Vec::new();
            s.read_to_end(&mut b).unwrap();
            s.write_all(b"ok").unwrap();
        });
        let mut c = Endpoint::Tcp(addr)
            .connect(Some(Duration::from_secs(5)))
            .unwrap();
        c.write_all(b"x").unwrap();
        c.shutdown_write().unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).unwrap();
        assert_eq!(back, b"ok");
        t.join().unwrap();
    }

    #[test]
    fn uds_listener_cleans_up_socket_file() {
        let path = temp_sock("b");
        {
            let _l = Listener::bind(&Endpoint::uds(&path)).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists(), "socket file unlinked on drop");
    }

    #[test]
    fn stale_socket_file_is_replaced() {
        let path = temp_sock("c");
        std::fs::write(&path, b"stale").unwrap();
        let l = Listener::bind(&Endpoint::uds(&path));
        assert!(l.is_ok(), "stale file must not block bind");
    }

    #[test]
    fn endpoint_display_is_diagnostic() {
        assert!(Endpoint::uds("/tmp/x.sock").to_string().starts_with("uds:"));
        let e = Endpoint::tcp("127.0.0.1:9000").unwrap();
        assert_eq!(e.to_string(), "tcp:127.0.0.1:9000");
    }

    #[test]
    fn endpoint_display_roundtrips_through_parse() {
        for ep in [
            Endpoint::uds("/tmp/x.sock"),
            Endpoint::tcp("127.0.0.1:9000").unwrap(),
        ] {
            assert_eq!(ep.to_string().parse::<Endpoint>().unwrap(), ep);
        }
        assert!("uds:".parse::<Endpoint>().is_err());
        assert!("smoke-signal:hill".parse::<Endpoint>().is_err());
    }
}
