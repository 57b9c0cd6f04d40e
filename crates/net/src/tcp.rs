//! Length-prefix framed TCP transport.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::{LinkModel, NetError, TrafficMeter, Transport};

/// Maximum frame size accepted on the wire (16 MiB — far above any block
/// size the workloads use, small enough to reject corrupt length
/// prefixes).
const MAX_FRAME: usize = 16 << 20;

/// A [`Transport`] over a TCP stream with 4-byte little-endian length
/// prefixes.
///
/// Used by the examples to run an iSCSI-lite initiator and target as two
/// actual endpoints over loopback, mirroring the paper's testbed setup.
///
/// # Example
///
/// ```no_run
/// use prins_net::{LinkModel, TcpTransport, Transport};
///
/// # fn main() -> Result<(), prins_net::NetError> {
/// // On the target host:
/// let listener = std::net::TcpListener::bind("127.0.0.1:13260")?;
/// // On the initiator host:
/// let t = TcpTransport::connect("127.0.0.1:13260", LinkModel::gigabit_lan())?;
/// t.send(b"login")?;
/// # Ok(())
/// # }
/// ```
pub struct TcpTransport {
    reader: Mutex<Reader>,
    writer: Mutex<Writer>,
    meter: Arc<TrafficMeter>,
}

/// The receiving half: the socket, the read timeout it currently has,
/// and the frame being received. A receive that times out part-way
/// through a frame leaves what it got here, and the next one carries on
/// from that byte — the stream never loses its framing to a timeout.
struct Reader {
    stream: TcpStream,
    timeout: Option<Duration>,
    prefix: [u8; 4],
    body: Vec<u8>,
    /// Bytes of the current frame received so far, prefix included.
    filled: usize,
}

/// The sending half: the socket and the buffer a frame is assembled in,
/// so prefix and body leave in one `write`.
struct Writer {
    stream: TcpStream,
    frame: Vec<u8>,
}

impl TcpTransport {
    /// Connects to a listening peer.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the connect.
    pub fn connect<A: ToSocketAddrs>(addr: A, link: LinkModel) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, link)
    }

    /// Accepts one connection from `listener`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the accept.
    pub fn accept(listener: &TcpListener, link: LinkModel) -> Result<Self, NetError> {
        let (stream, _peer) = listener.accept()?;
        Self::from_stream(stream, link)
    }

    /// Wraps an already-connected stream.
    ///
    /// # Errors
    ///
    /// Fails if the stream cannot be duplicated for split read/write
    /// locking.
    pub fn from_stream(stream: TcpStream, link: LinkModel) -> Result<Self, NetError> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(None)?;
        let reader = stream.try_clone()?;
        Ok(Self {
            reader: Mutex::new(Reader {
                stream: reader,
                timeout: None,
                prefix: [0; 4],
                body: Vec::new(),
                filled: 0,
            }),
            writer: Mutex::new(Writer {
                stream,
                frame: Vec::new(),
            }),
            meter: TrafficMeter::shared(link),
        })
    }

    fn recv_within(&self, timeout: Option<Duration>) -> Result<Vec<u8>, NetError> {
        let mut reader = self.reader.lock();
        if reader.timeout != timeout {
            reader.stream.set_read_timeout(timeout)?;
            reader.timeout = timeout;
        }
        let msg = reader.read_frame()?;
        self.meter.record_recv(msg.len());
        Ok(msg)
    }
}

/// Reads into `buf[*filled..]` until it is full; a timeout or error
/// leaves `*filled` at what arrived.
fn fill(stream: &mut TcpStream, buf: &mut [u8], filled: &mut usize) -> Result<(), NetError> {
    while *filled < buf.len() {
        match stream.read(&mut buf[*filled..]) {
            Ok(0) => return Err(NetError::Disconnected),
            Ok(n) => *filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

impl Reader {
    /// Receives the rest of the current frame and hands it over.
    fn read_frame(&mut self) -> Result<Vec<u8>, NetError> {
        if self.filled < 4 {
            fill(&mut self.stream, &mut self.prefix, &mut self.filled)?;
        }
        let len = u32::from_le_bytes(self.prefix) as usize;
        // A length that cannot be a frame's means the stream is not
        // framed any more: the prefix stays, and every later receive
        // says so too.
        if len > MAX_FRAME {
            return Err(NetError::FrameTooLarge {
                size: len,
                max: MAX_FRAME,
            });
        }
        if self.body.len() != len {
            // The prefix has just completed: the body starts here.
            self.body = vec![0u8; len];
        }
        let mut got = self.filled - 4;
        let received = fill(&mut self.stream, &mut self.body, &mut got);
        self.filled = 4 + got;
        received?;
        self.filled = 0;
        Ok(std::mem::take(&mut self.body))
    }
}

impl Transport for TcpTransport {
    fn send(&self, msg: &[u8]) -> Result<(), NetError> {
        if msg.len() > MAX_FRAME {
            return Err(NetError::FrameTooLarge {
                size: msg.len(),
                max: MAX_FRAME,
            });
        }
        let mut writer = self.writer.lock();
        let Writer { stream, frame } = &mut *writer;
        frame.clear();
        frame.extend_from_slice(&(msg.len() as u32).to_le_bytes());
        frame.extend_from_slice(msg);
        stream.write_all(frame)?;
        self.meter.record_send(msg.len());
        Ok(())
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        self.recv_within(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.recv_within(Some(timeout))
    }

    fn meter(&self) -> &Arc<TrafficMeter> {
        &self.meter
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            TcpTransport::accept(&listener, LinkModel::gigabit_lan()).unwrap()
        });
        let client = TcpTransport::connect(addr, LinkModel::gigabit_lan()).unwrap();
        (client, h.join().unwrap())
    }

    #[test]
    fn round_trip_over_loopback() {
        let (a, b) = pair();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap(), b"pong");
        assert_eq!(a.meter().messages_sent(), 1);
        assert_eq!(a.meter().messages_received(), 1);
    }

    #[test]
    fn large_and_empty_frames() {
        let (a, b) = pair();
        let big = vec![7u8; 1 << 20];
        a.send(&big).unwrap();
        a.send(&[]).unwrap();
        assert_eq!(b.recv().unwrap(), big);
        assert_eq!(b.recv().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn oversized_send_is_rejected_locally() {
        let (a, _b) = pair();
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(a.send(&huge), Err(NetError::FrameTooLarge { .. })));
    }

    #[test]
    fn recv_timeout_fires() {
        let (a, _b) = pair();
        assert!(matches!(
            a.recv_timeout(Duration::from_millis(20)),
            Err(NetError::Timeout)
        ));
    }

    /// A transport facing a bare socket the test writes raw bytes to.
    fn facing_raw_peer() -> (TcpTransport, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        raw.set_nodelay(true).unwrap();
        let t = TcpTransport::accept(&listener, LinkModel::gigabit_lan()).unwrap();
        (t, raw)
    }

    #[test]
    fn a_timeout_mid_frame_keeps_the_stream_in_step() {
        let (t, mut raw) = facing_raw_peer();
        let body: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let wait = Duration::from_millis(30);
        // Two of the four prefix bytes, then silence.
        let prefix = (body.len() as u32).to_le_bytes();
        raw.write_all(&prefix[..2]).unwrap();
        assert!(matches!(t.recv_timeout(wait), Err(NetError::Timeout)));
        // The rest of the prefix and no body.
        raw.write_all(&prefix[2..]).unwrap();
        assert!(matches!(t.recv_timeout(wait), Err(NetError::Timeout)));
        // Part of the body.
        raw.write_all(&body[..400]).unwrap();
        assert!(matches!(t.recv_timeout(wait), Err(NetError::Timeout)));
        // The rest: the frame arrives whole, and the one behind it —
        // received without a timeout — is still read as a frame.
        raw.write_all(&body[400..]).unwrap();
        assert_eq!(t.recv_timeout(wait).unwrap(), body);
        raw.write_all(&4u32.to_le_bytes()).unwrap();
        raw.write_all(b"next").unwrap();
        assert_eq!(t.recv().unwrap(), b"next");
        assert_eq!(t.meter().messages_received(), 2);
        // And a timeout between frames is still just a timeout.
        assert!(matches!(t.recv_timeout(wait), Err(NetError::Timeout)));
        raw.write_all(&0u32.to_le_bytes()).unwrap();
        assert_eq!(t.recv_timeout(wait).unwrap(), b"");
    }

    #[test]
    fn a_frame_leaves_as_prefix_then_body() {
        let (t, mut raw) = facing_raw_peer();
        t.send(b"hello").unwrap();
        t.send(b"").unwrap();
        let mut got = [0u8; 4 + 5 + 4];
        raw.read_exact(&mut got).unwrap();
        assert_eq!(got, *b"\x05\0\0\0hello\0\0\0\0");
    }

    #[test]
    fn an_impossible_length_is_reported_on_every_receive() {
        let (t, mut raw) = facing_raw_peer();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.write_all(b"whatever follows").unwrap();
        for _ in 0..2 {
            assert!(matches!(t.recv(), Err(NetError::FrameTooLarge { .. })));
        }
    }

    #[test]
    fn peer_drop_disconnects() {
        let (a, b) = pair();
        drop(b);
        assert!(matches!(a.recv(), Err(NetError::Disconnected)));
    }
}
