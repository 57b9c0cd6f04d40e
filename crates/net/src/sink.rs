//! A transport that discards sends and replays a scripted receive
//! stream — the measurement harness for allocation-budget tests.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::{LinkModel, NetError, TrafficMeter, Transport};

/// A [`Transport`] whose sends vanish (metered, then dropped) and whose
/// receives pop from a pre-loaded script.
///
/// Real channel transports allocate per message (the delivered `Vec`,
/// queue nodes, wakeups), which would drown out the numbers an
/// allocation-budget test is after. `SinkTransport` keeps the wire out
/// of the measurement: the ack script is allocated *before* the
/// measured region, and the hot loop only pops pre-built replies.
///
/// # Example
///
/// ```
/// use prins_net::{SinkTransport, Transport};
///
/// let sink = SinkTransport::new();
/// sink.preload(vec![vec![1, 2], vec![3]]);
/// sink.send(b"discarded").unwrap();
/// assert_eq!(sink.recv().unwrap(), vec![1, 2]);
/// assert_eq!(sink.recv().unwrap(), vec![3]);
/// assert!(sink.recv().is_err(), "drained script disconnects");
/// ```
pub struct SinkTransport {
    script: Mutex<VecDeque<Vec<u8>>>,
    meter: Arc<TrafficMeter>,
}

impl SinkTransport {
    /// An empty sink: sends are discarded, receives disconnect until
    /// replies are [`preload`](Self::preload)ed.
    pub fn new() -> Self {
        Self {
            script: Mutex::new(VecDeque::new()),
            meter: TrafficMeter::shared(LinkModel::gigabit_lan()),
        }
    }

    /// Appends replies to the receive script, served in order.
    pub fn preload(&self, replies: impl IntoIterator<Item = Vec<u8>>) {
        self.script.lock().extend(replies);
    }
}

impl Default for SinkTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl Transport for SinkTransport {
    fn send(&self, msg: &[u8]) -> Result<(), NetError> {
        self.meter.record_send(msg.len());
        Ok(())
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        match self.script.lock().pop_front() {
            Some(reply) => {
                self.meter.record_recv(reply.len());
                Ok(reply)
            }
            None => Err(NetError::Disconnected),
        }
    }

    fn recv_timeout(&self, _timeout: Duration) -> Result<Vec<u8>, NetError> {
        // The script is either ready or will never arrive; a sink never
        // actually waits.
        self.recv()
    }

    fn meter(&self) -> &Arc<TrafficMeter> {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sends_are_metered_and_dropped() {
        let sink = SinkTransport::new();
        sink.send(&[0u8; 100]).unwrap();
        sink.send(&[0u8; 50]).unwrap();
        assert_eq!(sink.meter().messages_sent(), 2);
        assert_eq!(sink.meter().payload_bytes_sent(), 150);
    }

    #[test]
    fn receives_replay_the_script_then_disconnect() {
        let sink = SinkTransport::new();
        sink.preload(vec![vec![9u8; 4], vec![8u8; 2]]);
        assert_eq!(sink.recv().unwrap(), vec![9u8; 4]);
        assert_eq!(
            sink.recv_timeout(Duration::from_secs(1)).unwrap(),
            vec![8u8; 2]
        );
        assert!(matches!(sink.recv(), Err(NetError::Disconnected)));
        assert_eq!(sink.meter().messages_received(), 2);
    }
}
