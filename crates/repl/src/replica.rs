//! The replica side of a link: the stock apply-and-answer loop, and the
//! block-by-block consistency check tests and harnesses end on.

use prins_block::BlockDevice;
use prins_net::Transport;

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
    run_replica_applier(ReplicaApplier::new(device), transport)
}

/// [`run_replica`] with a caller-built applier — the hook for replicas
/// that need a non-default configuration, e.g. a Reed–Solomon
/// [`ErasureCodec`](prins_parity::ErasureCodec) for parity strips of an
/// erasure-coded group.
///
/// # Errors
///
/// As [`run_replica`].
pub fn run_replica_applier<D, T>(
    mut applier: ReplicaApplier<D>,
    transport: &T,
) -> Result<u64, ReplError>
where
    D: BlockDevice,
    T: Transport,
{
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
