//! One connection as a primary drives it: seal and send, await the
//! answers in order, and decide when a generation of answers is over.
//!
//! A [`Peer`] is a [`Link`] plus the FIFO of frames sent on it and not
//! yet answered. [`ClusterGroup`](crate::ClusterGroup)'s replicas and
//! [`EcGroup`](crate::EcGroup)'s strip nodes are each a `Peer` plus
//! their own bookkeeping, and every frame either group puts on the wire
//! — foreground writes, read offload, resync batches, scrub probes,
//! strip deltas, strip fetches, rebuild shipments — goes through the
//! five verbs here. This file is the only code in the crate that sends
//! on a link, waits for a response or moves an epoch (`ci.sh` greps for
//! it), so it is the one place the **stranded-response rule** lives:
//!
//! > A response that was not consumed may surface later. Whenever that
//! > can be the case — a receive failed, or frames still in flight were
//! > given up on — the peer opens a new epoch, so the late answer
//! > carries an older one and is dropped instead of being credited to a
//! > newer frame.
//!
//! PRINS ships XOR deltas: one acknowledgement credited to the wrong
//! frame leaves a replica silently and permanently diverged, which is
//! why the rule has exactly one home. A NAK or corrupt-NAK *was* the
//! frame's answer, so it moves nothing.

use std::collections::VecDeque;
use std::time::Duration;

use prins_net::Transport;
use prins_obs::TraceId;
use prins_repl::{Link, LinkEvent, ReplError, Response};

use crate::probe::Probe;

/// A frame sent and not yet answered.
struct Sent<T> {
    /// The epoch the frame was sealed under — its answer echoes it.
    epoch: u64,
    /// The response status that answers it.
    want: u8,
    /// The trace a stale answer dropped while waiting is attributed to.
    trace: Option<TraceId>,
    tag: T,
}

/// What became of one sent frame.
pub(crate) struct Collected<T> {
    /// The owner's tag, as given to [`Peer::send`].
    pub tag: T,
    pub trace: Option<TraceId>,
    /// How long the answer was waited for, on the probe's clock.
    pub waited: u64,
    pub answer: Result<Response, ReplError>,
}

/// A link and the frames in flight on it, oldest first (the transport
/// delivers and the far end answers in order).
pub(crate) struct Peer<T> {
    idx: usize,
    link: Link,
    timeout: Duration,
    in_flight: VecDeque<Sent<T>>,
}

impl<T> Peer<T> {
    /// The connection to replica (or node) number `idx`, waiting up to
    /// `timeout` for each answer.
    pub fn new(idx: usize, transport: Box<dyn Transport>, timeout: Duration) -> Self {
        Self {
            idx,
            link: Link::new(idx, transport),
            timeout,
            in_flight: VecDeque::new(),
        }
    }

    /// The tags of the frames in flight, oldest first.
    pub fn in_flight(&self) -> impl ExactSizeIterator<Item = &T> {
        self.in_flight.iter().map(|sent| &sent.tag)
    }

    /// Seals whatever `fill` appends under the current epoch, sends it
    /// and queues it as awaiting a `want` response. Returns the sealed
    /// frame's length.
    ///
    /// # Errors
    ///
    /// [`ReplError::Net`] if the transport refuses the frame — it never
    /// left, so nothing is queued.
    pub fn send(
        &mut self,
        tag: T,
        trace: Option<TraceId>,
        want: u8,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<usize, ReplError> {
        let sealed_len = self.link.send(fill)?;
        self.in_flight.push_back(Sent {
            epoch: self.link.epoch(),
            want,
            trace,
            tag,
        });
        Ok(sealed_len)
    }

    /// Awaits the answer to the oldest frame in flight (`None` if there
    /// is none). A receive failure leaves that answer unconsumed, so it
    /// opens a new epoch — the rule in the module docs.
    pub fn collect_oldest(&mut self, probe: &Probe) -> Option<Collected<T>> {
        let sent = self.in_flight.pop_front()?;
        let started = probe.stamp();
        let mut on_event = |event| match event {
            LinkEvent::StaleDropped => probe.stale_dropped(self.idx, sent.trace),
            // The frame (or the block behind a read) was damaged; the
            // far end rejected it before applying anything.
            LinkEvent::CorruptNak => probe.corrupt_nak(),
        };
        let answer = self
            .link
            .recv_response(sent.want, sent.epoch, self.timeout, &mut on_event);
        if matches!(answer, Err(ReplError::Net(_))) {
            self.link.bump_epoch();
        }
        Some(Collected {
            tag: sent.tag,
            trace: sent.trace,
            waited: probe.stamp().saturating_sub(started),
            answer,
        })
    }

    /// Collects everything in flight, oldest first, handing each
    /// outcome to `retire`.
    pub fn drain(&mut self, probe: &Probe, mut retire: impl FnMut(Collected<T>)) {
        while let Some(collected) = self.collect_oldest(probe) {
            retire(collected);
        }
    }

    /// Asks one question: drains (answers arrive in order, so this
    /// one's queues behind everything in flight), sends `fill` and
    /// awaits its `want` response. Returns the sealed request's length
    /// (0 if it never left) beside the answer.
    pub fn request(
        &mut self,
        probe: &Probe,
        tag: T,
        trace: Option<TraceId>,
        want: u8,
        fill: impl FnOnce(&mut Vec<u8>),
        retire: impl FnMut(Collected<T>),
    ) -> (usize, Result<Response, ReplError>) {
        self.drain(probe, retire);
        match self.send(tag, trace, want, fill) {
            Ok(sealed_len) => {
                let asked = self.collect_oldest(probe).expect("sent just above");
                (sealed_len, asked.answer)
            }
            Err(e) => (0, Err(e)),
        }
    }

    /// Gives up on whatever is in flight and opens a new epoch: the
    /// dropped frames' answers, and anything stranded from before a
    /// rejoin, rebuild or cutover, identify themselves as stale.
    pub fn abandon(&mut self) {
        self.in_flight.clear();
        self.link.bump_epoch();
    }

    /// Swaps in a new connection (which opens a new epoch, so answers
    /// stranded on the old one identify themselves); frames in flight
    /// on the old one are given up on.
    pub fn reconnect(&mut self, transport: Box<dyn Transport>) {
        self.in_flight.clear();
        self.link.reconnect(transport);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_net::{NetError, SinkTransport, TrafficMeter};
    use prins_repl::{encode_ack, ACK, DIGEST_ACK, NAK};
    use std::sync::Arc;

    const T: Duration = Duration::from_secs(1);

    /// A sink whose script the test can extend after handing it over.
    struct Shared(Arc<SinkTransport>);

    impl Transport for Shared {
        fn send(&self, msg: &[u8]) -> Result<(), NetError> {
            self.0.send(msg)
        }
        fn recv(&self) -> Result<Vec<u8>, NetError> {
            self.0.recv()
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
            self.0.recv_timeout(timeout)
        }
        fn meter(&self) -> &Arc<TrafficMeter> {
            self.0.meter()
        }
    }

    fn peer() -> (Peer<u32>, Arc<SinkTransport>) {
        let sink = Arc::new(SinkTransport::new());
        let peer = Peer::new(0, Box::new(Shared(Arc::clone(&sink))), T);
        (peer, sink)
    }

    fn frame(out: &mut Vec<u8>) {
        out.extend_from_slice(b"frame");
    }

    #[test]
    fn answers_retire_frames_oldest_first() {
        let (mut peer, sink) = peer();
        let probe = Probe::default();
        assert!(peer.send(7, None, ACK, frame).unwrap() > 5, "sealed");
        peer.send(8, None, ACK, frame).unwrap();
        assert_eq!(peer.in_flight().copied().collect::<Vec<_>>(), [7, 8]);
        sink.preload([encode_ack(ACK, 1), encode_ack(NAK, 1)]);
        let first = peer.collect_oldest(&probe).unwrap();
        assert!(first.tag == 7 && first.answer.is_ok());
        let second = peer.collect_oldest(&probe).unwrap();
        assert_eq!(second.tag, 8);
        assert!(matches!(second.answer, Err(ReplError::Nak { replica: 0 })));
        // A NAK was the frame's answer: the epoch did not move.
        assert_eq!(peer.link.epoch(), 1);
        assert!(peer.collect_oldest(&probe).is_none());
    }

    #[test]
    fn receive_failure_opens_a_generation_and_the_late_answer_drops_as_stale() {
        let (mut peer, sink) = peer();
        let probe = Probe::default();
        peer.send(1, None, ACK, frame).unwrap();
        let lost = peer.collect_oldest(&probe).unwrap();
        assert!(matches!(lost.answer, Err(ReplError::Net(_))));
        assert_eq!(peer.link.epoch(), 2);

        // Frame 1's ACK surfaces late, ahead of frame 2's NAK. Credited
        // by position it would acknowledge a frame the far end refused.
        peer.send(2, None, ACK, frame).unwrap();
        sink.preload([encode_ack(ACK, 1), encode_ack(NAK, 2)]);
        let second = peer.collect_oldest(&probe).unwrap();
        assert_eq!(second.tag, 2);
        assert!(matches!(second.answer, Err(ReplError::Nak { .. })));
        assert_eq!(sink.pending(), 0, "the stale ack was consumed and dropped");
    }

    #[test]
    fn request_drains_what_is_in_flight_first() {
        let (mut peer, sink) = peer();
        let probe = Probe::default();
        peer.send(1, None, ACK, frame).unwrap();
        peer.send(2, None, ACK, frame).unwrap();
        let mut digest = encode_ack(DIGEST_ACK, 1);
        digest.extend_from_slice(&0xfeed_u32.to_le_bytes());
        sink.preload([encode_ack(ACK, 1), encode_ack(ACK, 1), digest]);
        let mut retired = Vec::new();
        let (sealed_len, answer) = peer.request(&probe, 3, None, DIGEST_ACK, frame, |c| {
            retired.push((c.tag, c.answer.is_ok()))
        });
        assert!(sealed_len > 0);
        assert_eq!(answer.unwrap().digest(), Some(0xfeed));
        assert_eq!(retired, [(1, true), (2, true)]);
        assert_eq!(peer.in_flight().len(), 0);
    }

    #[test]
    fn abandon_drops_the_tags_and_bumps_once() {
        let (mut peer, sink) = peer();
        let probe = Probe::default();
        peer.send(1, None, ACK, frame).unwrap();
        peer.send(2, None, ACK, frame).unwrap();
        peer.abandon();
        assert_eq!(peer.in_flight().len(), 0);
        assert_eq!(peer.link.epoch(), 2);
        // Both abandoned answers surface under the old epoch; neither
        // is taken for the next frame's.
        peer.send(3, None, ACK, frame).unwrap();
        sink.preload([encode_ack(ACK, 1), encode_ack(ACK, 1), encode_ack(ACK, 2)]);
        assert!(peer.collect_oldest(&probe).unwrap().answer.is_ok());
        assert_eq!(sink.pending(), 0);
    }
}
