//! Link-fault injection: a transport wrapper whose link can be severed
//! and restored from outside.
//!
//! Cluster experiments need to take a replica's WAN link down mid-trace
//! and bring it back later (the outage → degraded mode → resync cycle).
//! [`FaultTransport`] wraps any [`Transport`]; its paired [`LinkHandle`]
//! flips the link state from the test harness while the replication
//! engine owns the transport.
//!
//! While severed, every operation fails with [`NetError::Disconnected`]
//! — exactly what a dropped TCP connection looks like to the engine.
//! Frames already queued by the peer are *not* discarded; like a
//! reconnecting TCP endpoint, the engine is expected to drain or
//! reconcile them on restore.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::{NetError, TrafficMeter, Transport};

/// Shared switch controlling a [`FaultTransport`]'s link state.
#[derive(Clone, Debug)]
pub struct LinkHandle {
    up: Arc<AtomicBool>,
}

impl LinkHandle {
    /// Cuts the link: all transport operations fail until restored.
    pub fn sever(&self) {
        self.up.store(false, Ordering::SeqCst);
    }

    /// Brings the link back up.
    pub fn restore(&self) {
        self.up.store(true, Ordering::SeqCst);
    }
}

/// A [`Transport`] wrapper with an externally controlled kill switch.
#[derive(Debug)]
pub struct FaultTransport<T> {
    inner: T,
    up: Arc<AtomicBool>,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner` (link initially up) and returns the control handle.
    pub fn new(inner: T) -> (Self, LinkHandle) {
        let up = Arc::new(AtomicBool::new(true));
        let handle = LinkHandle {
            up: Arc::clone(&up),
        };
        (Self { inner, up }, handle)
    }

    fn check_up(&self) -> Result<(), NetError> {
        if self.up.load(Ordering::SeqCst) {
            Ok(())
        } else {
            Err(NetError::Disconnected)
        }
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn send(&self, msg: &[u8]) -> Result<(), NetError> {
        self.check_up()?;
        self.inner.send(msg)
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        self.check_up()?;
        self.inner.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.check_up()?;
        self.inner.recv_timeout(timeout)
    }

    fn meter(&self) -> &Arc<TrafficMeter> {
        self.inner.meter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{channel_pair, LinkModel};

    #[test]
    fn severed_link_fails_both_directions() {
        let (a, b) = channel_pair(LinkModel::t1());
        let (faulty, link) = FaultTransport::new(a);
        faulty.send(b"before").unwrap();
        assert_eq!(b.recv().unwrap(), b"before");

        link.sever();
        assert!(matches!(faulty.send(b"x"), Err(NetError::Disconnected)));
        assert!(matches!(
            faulty.recv_timeout(Duration::from_millis(1)),
            Err(NetError::Disconnected)
        ));
    }

    #[test]
    fn restore_resumes_and_preserves_queued_frames() {
        let (a, b) = channel_pair(LinkModel::t1());
        let (faulty, link) = FaultTransport::new(a);
        link.sever();
        // Peer keeps talking into the void; the frame queues.
        b.send(b"queued during outage").unwrap();
        assert!(faulty.recv().is_err());

        link.restore();
        assert_eq!(faulty.recv().unwrap(), b"queued during outage");
        faulty.send(b"back").unwrap();
        assert_eq!(b.recv().unwrap(), b"back");
    }

    #[test]
    fn meter_passes_through_to_inner() {
        let (a, b) = channel_pair(LinkModel::t1());
        let (faulty, _link) = FaultTransport::new(a);
        faulty.send(b"abcd").unwrap();
        let _ = b.recv().unwrap();
        assert_eq!(faulty.meter().messages_sent(), 1);
        assert_eq!(faulty.meter().payload_bytes_sent(), 4);
    }
}
