//! The replica side of a link: the stock apply-and-answer loop, on a
//! thread or as a simulated-network actor, and the block-by-block
//! consistency check tests and harnesses end on.

use prins_block::BlockDevice;
use prins_net::{SimNet, SimTransport, Transport};

use crate::{ReplError, ReplicaApplier};

/// Runs a replica node: applies every incoming payload to `device` and
/// acknowledges it, until the peer disconnects.
///
/// Returns the number of write payloads applied.
///
/// # Errors
///
/// Local device failures NAK the offending payload and abort with the
/// error; transport disconnect is a clean return.
pub fn run_replica<D, T>(device: &D, transport: &T) -> Result<u64, ReplError>
where
    D: BlockDevice + ?Sized,
    T: Transport,
{
    let mut applier = ReplicaApplier::new(device);
    loop {
        let payload = match transport.recv() {
            Ok(p) => p,
            Err(prins_net::NetError::Disconnected) => return Ok(applier.applied()),
            Err(e) => return Err(e.into()),
        };
        let (reply, rejected) = applier.respond(&payload);
        transport.send(&reply)?;
        if let Some(e) = rejected {
            return Err(e);
        }
    }
}

/// Serves `endpoint` with `applier` as a [`SimNet`] actor: the stock
/// apply-and-answer loop of [`run_replica`], run by the network
/// whenever a frame is delivered to `endpoint` or its link comes back,
/// in virtual time and on the caller's thread.
///
/// The applier lives as long as the actor, not one delivery: it keeps
/// the last epoch it opened, which every answer echoes, and its per-LBA
/// checksum table, against which verify-on-apply catches a stale base.
/// A refused frame is answered (`NAK` or `NAK_CORRUPT`) and the actor
/// keeps serving: the primary, which reads the answer, records the
/// refusal.
pub fn serve_sim<D>(net: &SimNet, endpoint: &SimTransport, mut applier: ReplicaApplier<D>)
where
    D: BlockDevice + Send + 'static,
{
    let tr = endpoint.clone();
    net.set_actor(
        endpoint,
        Box::new(move || {
            while let Ok(Some(frame)) = tr.try_recv() {
                let _ = tr.send(&applier.respond(&frame).0);
            }
        }),
    );
}

/// Compares two devices block by block.
///
/// # Errors
///
/// Propagates read failures from either device.
pub fn verify_consistent<A, B>(a: &A, b: &B) -> Result<bool, ReplError>
where
    A: BlockDevice + ?Sized,
    B: BlockDevice + ?Sized,
{
    if a.geometry() != b.geometry() {
        return Ok(false);
    }
    for lba in a.geometry().range().iter() {
        if a.read_block_vec(lba)? != b.read_block_vec(lba)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ACK;
    use crate::ReplicationMode;
    use prins_block::{BlockSize, Lba, MemDevice};
    use prins_net::{channel_pair, LinkModel};
    use std::sync::Arc;

    #[test]
    fn stock_replica_loop_answers_unsealed_and_tag_flipped_frames_with_nak_corrupt() {
        use crate::wire::{encode_ack, seal_frame, NAK_CORRUPT};
        let (primary_side, replica_side) = channel_pair(LinkModel::t1());
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), 2));
        let dev = Arc::clone(&device);
        let worker = std::thread::spawn(move || run_replica(&*dev, &replica_side));

        let payload = ReplicationMode::Traditional.replicator().encode_write(
            Lba(1),
            &[0u8; 4096],
            &[5u8; 4096],
        );
        // One bit flip on the seal tag makes the frame look unsealed;
        // taking it at its word would skip the CRC.
        let mut flipped = seal_frame(1, &payload);
        flipped[0] ^= 0x01;
        for damaged in [&payload, &flipped] {
            primary_side.send(damaged).unwrap();
            assert_eq!(primary_side.recv().unwrap(), encode_ack(NAK_CORRUPT, 0));
        }
        assert_eq!(device.read_block_vec(Lba(1)).unwrap(), vec![0u8; 4096]);
        // The loop is still serving: the same payload, sealed, lands.
        primary_side.send(&seal_frame(1, &payload)).unwrap();
        assert_eq!(primary_side.recv().unwrap(), encode_ack(ACK, 1));
        assert_eq!(device.read_block_vec(Lba(1)).unwrap(), vec![5u8; 4096]);
        drop(primary_side);
        assert_eq!(worker.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn serve_sim_keeps_one_applier_for_the_actors_whole_life() {
        use crate::wire::{encode_ack, seal_frame, NAK, NAK_CORRUPT};
        let net = prins_net::SimNet::new();
        let (primary_side, replica_side, _ctl) =
            net.add_link("replica", std::time::Duration::from_micros(100));
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), 2));
        let applier = ReplicaApplier::new(Arc::clone(&device));
        serve_sim(&net, &replica_side, applier);
        let prins = ReplicationMode::Prins.replicator();
        // Each write changes a few bytes, so it ships as a parity.
        let image = |fill: u8| {
            let mut block = vec![0u8; 4096];
            block[..16].fill(fill);
            block
        };
        let (zero, one, two) = (image(0), image(1), image(2));
        let ask = |lba: u64, old: &[u8], new: &[u8]| {
            let payload = prins.encode_write(Lba(lba), old, new);
            primary_side.send(&seal_frame(1, &payload)).unwrap();
            primary_side.recv().unwrap()
        };

        // A delivered parity lands; the applier records the block's CRC.
        assert_eq!(ask(1, &zero, &one), encode_ack(ACK, 1));
        assert_eq!(device.read_block_vec(Lba(1)).unwrap(), one);
        // The block rots behind the applier's back. The next delivery
        // still sees the first one's checksum, so the stale base is
        // refused instead of XORed into a state the primary never had.
        device.write_block(Lba(1), &[9u8; 4096]).unwrap();
        assert_eq!(ask(1, &one, &two), encode_ack(NAK_CORRUPT, 1));
        assert_eq!(device.read_block_vec(Lba(1)).unwrap(), [9u8; 4096]);

        // A frame past the device's end is refused, and the actor keeps
        // serving: the frame after it is applied and acknowledged.
        assert_eq!(ask(5, &zero, &one), encode_ack(NAK, 1));
        assert_eq!(ask(0, &zero, &two), encode_ack(ACK, 1));
        assert_eq!(device.read_block_vec(Lba(0)).unwrap(), two);
    }

    #[test]
    fn verify_consistent_detects_divergence() {
        let a = MemDevice::new(BlockSize::kb4(), 4);
        let b = MemDevice::new(BlockSize::kb4(), 4);
        assert!(verify_consistent(&a, &b).unwrap());
        a.write_block(Lba(2), &vec![1u8; 4096]).unwrap();
        assert!(!verify_consistent(&a, &b).unwrap());
        let c = MemDevice::new(BlockSize::kb4(), 8);
        assert!(!verify_consistent(&a, &c).unwrap());
    }
}
