//! In-process transport over crossbeam channels.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::{LinkModel, NetError, TrafficMeter, Transport};

/// One endpoint of an in-memory duplex transport.
///
/// Created in pairs by [`channel_pair`]. Messages are delivered reliably
/// and in order; traffic is accounted against the pair's [`LinkModel`].
/// This is the transport used by all single-process experiments — the
/// paper's traffic numbers depend only on message sizes, which the meter
/// captures exactly.
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    meter: Arc<TrafficMeter>,
}

/// Creates a connected pair of in-memory transports sharing a link model.
///
/// Each endpoint has its own meter (so a primary's sends and a replica's
/// sends are counted separately).
///
/// # Example
///
/// ```
/// use prins_net::{channel_pair, LinkModel, Transport};
///
/// # fn main() -> Result<(), prins_net::NetError> {
/// let (primary, replica) = channel_pair(LinkModel::t3());
/// primary.send(b"hello")?;
/// replica.send(b"ack")?;
/// assert_eq!(replica.recv()?, b"hello");
/// assert_eq!(primary.recv()?, b"ack");
/// # Ok(())
/// # }
/// ```
pub fn channel_pair(link: LinkModel) -> (ChannelTransport, ChannelTransport) {
    let (tx_ab, rx_ab) = unbounded();
    let (tx_ba, rx_ba) = unbounded();
    let a = ChannelTransport {
        tx: tx_ab,
        rx: rx_ba,
        meter: TrafficMeter::shared(link),
    };
    let b = ChannelTransport {
        tx: tx_ba,
        rx: rx_ab,
        meter: TrafficMeter::shared(link),
    };
    (a, b)
}

impl Transport for ChannelTransport {
    fn send(&self, msg: &[u8]) -> Result<(), NetError> {
        self.meter.record_send(msg.len());
        self.tx
            .send(msg.to_vec())
            .map_err(|_| NetError::Disconnected)
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        let msg = self.rx.recv().map_err(|_| NetError::Disconnected)?;
        self.meter.record_recv(msg.len());
        Ok(msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => {
                self.meter.record_recv(msg.len());
                Ok(msg)
            }
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    fn meter(&self) -> &Arc<TrafficMeter> {
        &self.meter
    }
}

impl std::fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("queued", &self.rx.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_arrive_in_order() {
        let (a, b) = channel_pair(LinkModel::t1());
        for i in 0..10u8 {
            a.send(&[i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(b.recv().unwrap(), vec![i]);
        }
    }

    #[test]
    fn drop_of_peer_disconnects() {
        let (a, b) = channel_pair(LinkModel::t1());
        drop(b);
        assert!(matches!(a.send(b"x"), Err(NetError::Disconnected)));
        assert!(matches!(a.recv(), Err(NetError::Disconnected)));
    }

    #[test]
    fn timeout_fires_when_idle() {
        let (_a, b) = channel_pair(LinkModel::t1());
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        ));
    }

    #[test]
    fn meters_count_each_direction_separately() {
        let (a, b) = channel_pair(LinkModel::t1());
        a.send(&vec![0u8; 3000]).unwrap();
        let _ = b.recv().unwrap();
        assert_eq!(a.meter().messages_sent(), 1);
        assert_eq!(a.meter().payload_bytes_sent(), 3000);
        assert_eq!(a.meter().packets_sent(), 2);
        assert_eq!(b.meter().messages_sent(), 0);
        assert_eq!(b.meter().payload_bytes_received(), 3000);
    }

    #[test]
    fn cross_thread_usage() {
        let (a, b) = channel_pair(LinkModel::t1());
        let h = std::thread::spawn(move || {
            for _ in 0..100 {
                let m = b.recv().unwrap();
                b.send(&m).unwrap();
            }
        });
        for i in 0..100u32 {
            a.send(&i.to_le_bytes()).unwrap();
            assert_eq!(a.recv().unwrap(), i.to_le_bytes());
        }
        h.join().unwrap();
    }
}
