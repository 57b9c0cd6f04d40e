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

/// The receive buffer's size, and the most one `read` takes while no
/// larger frame has grown it: many batched replication frames.
const READ_CHUNK: usize = 64 << 10;

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
/// and a recycled buffer of bytes received and not yet handed over.
/// Frames are parsed out of the buffer, so a frame whose prefix and
/// body arrived together costs one `read`, and the bytes behind it wait
/// there for the next receive. A receive that times out part-way
/// through a frame leaves what it got in the buffer, and the next one
/// carries on from that byte — the stream never loses its framing to a
/// timeout.
struct Reader {
    stream: TcpStream,
    timeout: Option<Duration>,
    /// Received bytes; `buf[start..end]` are not handed over yet.
    buf: Vec<u8>,
    start: usize,
    end: usize,
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
    pub(crate) fn from_stream(stream: TcpStream, link: LinkModel) -> Result<Self, NetError> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(None)?;
        let reader = stream.try_clone()?;
        Ok(Self {
            reader: Mutex::new(Reader {
                stream: reader,
                timeout: None,
                buf: vec![0; READ_CHUNK],
                start: 0,
                end: 0,
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

impl Reader {
    /// Hands over the next frame, reading until the buffer holds all of
    /// it; each `read` takes as much as has arrived, up to the room
    /// left.
    fn read_frame(&mut self) -> Result<Vec<u8>, NetError> {
        loop {
            let pending = &self.buf[self.start..self.end];
            let need = match pending.first_chunk::<4>() {
                Some(&prefix) => {
                    let len = u32::from_le_bytes(prefix) as usize;
                    // A length that cannot be a frame's means the stream
                    // is not framed any more: the prefix stays, and every
                    // later receive says so too.
                    if len > MAX_FRAME {
                        return Err(NetError::FrameTooLarge {
                            size: len,
                            max: MAX_FRAME,
                        });
                    }
                    if let Some(body) = pending.get(4..4 + len) {
                        let frame = body.to_vec();
                        self.start += 4 + len;
                        if self.start == self.end {
                            (self.start, self.end) = (0, 0);
                        }
                        return Ok(frame);
                    }
                    4 + len
                }
                None => 4,
            };
            self.make_room(need);
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Makes the buffer able to hold `need` bytes from `start`: moves
    /// the pending bytes to its front when they would not fit behind
    /// it, and grows it for a frame larger than it. It keeps the size
    /// of the largest frame received, at most [`MAX_FRAME`] and the
    /// prefix, so a stream of large frames zero-fills it once.
    fn make_room(&mut self, need: usize) {
        if self.start + need > self.buf.len() && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if need > self.buf.len() {
            self.buf.resize(need, 0);
        }
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

    /// `frames` as they go on the wire, prefix and body each.
    fn wire(frames: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for frame in frames {
            out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            out.extend_from_slice(frame);
        }
        out
    }

    #[test]
    fn frames_fed_a_byte_at_a_time_resume_after_a_timeout_at_every_byte() {
        let (t, mut raw) = facing_raw_peer();
        let frames: [&[u8]; 3] = [b"first frame", b"", b"x"];
        let bytes = wire(&frames);
        let ends: Vec<usize> = frames
            .iter()
            .scan(0, |end, f| {
                *end += 4 + f.len();
                Some(*end)
            })
            .collect();
        let mut got = Vec::new();
        for (i, byte) in bytes.iter().enumerate() {
            raw.write_all(std::slice::from_ref(byte)).unwrap();
            if ends.contains(&(i + 1)) {
                // The byte that completes a frame: a blocking receive
                // waits for it and hands the frame over.
                got.push(t.recv().unwrap());
            } else {
                // Mid-prefix or mid-body: a short wait times out, and
                // the bytes so far stay for the next receive.
                let wait = Duration::from_millis(2);
                assert!(matches!(t.recv_timeout(wait), Err(NetError::Timeout)));
            }
        }
        assert_eq!(got, frames);
        assert_eq!(t.meter().messages_received(), 3);
    }

    #[test]
    fn frames_arriving_in_one_segment_are_handed_over_one_by_one() {
        let (t, mut raw) = facing_raw_peer();
        let big = vec![9u8; 3 * READ_CHUNK];
        let frames: [&[u8]; 4] = [b"one", b"two", &big, b"after the big one"];
        // Two small frames and the head of a third, larger than the
        // buffer, in one write; its tail and a fourth frame in another.
        let bytes = wire(&frames);
        let split = 4 + 3 + 4 + 3 + 4 + 100;
        raw.write_all(&bytes[..split]).unwrap();
        assert_eq!(t.recv().unwrap(), b"one");
        assert_eq!(t.recv().unwrap(), b"two");
        let wait = Duration::from_millis(20);
        assert!(matches!(t.recv_timeout(wait), Err(NetError::Timeout)));
        raw.write_all(&bytes[split..]).unwrap();
        assert_eq!(t.recv().unwrap(), big);
        assert_eq!(t.recv().unwrap(), b"after the big one");
        assert!(matches!(t.recv_timeout(wait), Err(NetError::Timeout)));
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
