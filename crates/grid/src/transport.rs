//! The byte-stream abstraction under the frame protocol.
//!
//! Production connections are plain TCP ([`TcpTransport`]); tests
//! interpose a [`ChaosTransport`](crate::chaos::ChaosTransport) that
//! injects deterministic, seeded faults into the stream. Everything
//! above this layer — framing, the lease state machine, reconnect — is
//! written against `dyn Transport`, so the fabric's failure handling can be
//! exercised without real network failures.
//!
//! The trait deliberately mirrors the small slice of [`TcpStream`] the
//! fabric actually uses: reads with an optional timeout (the worker),
//! nonblocking mode (the service's event loop), and `shutdown` for
//! deliberate disconnects. Each connection has exactly one owner — the
//! service's loop thread or a worker's session thread — so a transport is
//! never shared or cloned.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A bidirectional byte stream a grid peer talks over.
///
/// Implementations must behave like a socket: a read that times out or
/// would block consumes nothing, and [`shutdown`](Transport::shutdown)
/// takes the connection down for the peer too.
pub trait Transport: Read + Write + Send {
    /// Sets the read timeout (like
    /// [`TcpStream::set_read_timeout`]).
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;

    /// Switches the connection between blocking and nonblocking mode (like
    /// [`TcpStream::set_nonblocking`]). The service's poll-based event loop
    /// runs every accepted connection nonblocking; workers stay blocking.
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;

    /// Tears down the connection.
    fn shutdown(&self) -> std::io::Result<()>;
}

/// The production transport: a plain TCP stream with `TCP_NODELAY` set
/// (frames are small and latency-sensitive).
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wraps an accepted or connected stream.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream })
    }

    /// Connects to `addr` and wraps the stream.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        TcpTransport::new(TcpStream::connect(addr)?)
    }
}

impl Read for TcpTransport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for TcpTransport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

impl Transport for TcpTransport {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    fn shutdown(&self) -> std::io::Result<()> {
        match self.stream.shutdown(std::net::Shutdown::Both) {
            // Already closed by the peer (or a prior shutdown): not an error.
            Err(e) if e.kind() == std::io::ErrorKind::NotConnected => Ok(()),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn tcp_transport_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            let mut buf = [0u8; 5];
            t.read_exact(&mut buf).unwrap();
            t.write_all(&buf).unwrap();
        });
        let mut t = TcpTransport::connect(&addr.to_string()).unwrap();
        t.write_all(b"hello").unwrap();
        let mut back = [0u8; 5];
        t.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello");
        server.join().unwrap();
        t.shutdown().unwrap();
        t.shutdown().unwrap(); // idempotent
    }
}
