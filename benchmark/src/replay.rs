//! Layer replay: one thread performs a workload's write path by hand,
//! one public call per layer, and times each call from outside.
//!
//! Nothing here runs concurrently except the echo thread behind the
//! transport, so every count (bytes, segments, picks, frames) repeats
//! exactly for a given seed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prins_block::{crc32c, BlockDevice, MemDevice};
use prins_buf::BufPool;
use prins_compress::{Codec, Lzss};
use prins_net::{LinkModel, Transport};
use prins_parity::{DeltaStats, SparseCodec};
use prins_policy::{AdaptiveReplicator, PolicyConfig};
use prins_repl::{
    encode_ack, open_frame, seal_batch_frame_into, seal_frame, Payload, PayloadBody,
    PrinsReplicator, ReplicaApplier, Replicator, ACK,
};
use prins_trap::TrapDevice;

use crate::measure;
use crate::traceloop::{OpList, TraceLoop};
use crate::workload::{connect, Path, Spec, BATCH_FRAMES};

/// Accumulated time and allocations of one kind of call.
#[derive(Default)]
struct Cell {
    ns: u64,
    allocs: u64,
    calls: u64,
}

/// One [`Cell`] per kind of call the replay prices.
#[derive(Default)]
struct Cells {
    timer: Cell,
    capture: Cell,
    local_write: Cell,
    crc: Cell,
    pool_get: Cell,
    encode_delta: Cell,
    decode_apply: Cell,
    encode_write: Cell,
    compress: Cell,
    decompress: Cell,
    seal: Cell,
    open: Cell,
    apply: Cell,
    send: Cell,
    recv: Cell,
    trap_append: Cell,
}

impl Cell {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let allocs = measure::allocs();
        let started = Instant::now();
        let out = f();
        self.ns += started.elapsed().as_nanos() as u64;
        self.allocs += measure::allocs() - allocs;
        self.calls += 1;
        out
    }

    fn ns_per(&self, n: u64) -> f64 {
        self.ns as f64 / n.max(1) as f64
    }

    fn ns_per_call(&self) -> f64 {
        self.ns_per(self.calls)
    }
}

fn per(total: u64, n: u64) -> f64 {
    total as f64 / n.max(1) as f64
}

/// Replays up to `max_ops` writes of `list` along `spec`'s path and
/// returns the replay-sourced per-layer metrics by name. `give_up`
/// ends the replay early on a starved machine (normally it takes a
/// second or two); the counts then cover fewer writes.
pub fn replay(
    spec: &Spec,
    list: &OpList,
    max_ops: usize,
    give_up: Duration,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let bs = list.block_size.bytes();
    let cluster = spec.path == Path::Cluster;
    let planned = (2 * list.ops.len()).min(max_ops) as u64;
    let batch_cap = if cluster { 1 } else { BATCH_FRAMES };

    let primary = MemDevice::from_contents(list.block_size, &list.initial);
    let replica = Arc::new(MemDevice::from_contents(list.block_size, &list.initial));
    let mut applier = ReplicaApplier::new(Arc::clone(&replica));
    let trap =
        cluster.then(|| TrapDevice::new(MemDevice::from_contents(list.block_size, &list.initial)));
    let pool = BufPool::for_block_size(bs, BATCH_FRAMES);
    let codec = SparseCodec::default();
    let lzss = Lzss::default();
    let adaptive = (spec.path == Path::EngineAdaptive)
        .then(|| AdaptiveReplicator::new(PolicyConfig::default()));
    let fixed = PrinsReplicator::new();
    let replicator: &dyn Replicator = match &adaptive {
        Some(adaptive) => adaptive,
        None => &fixed,
    };
    let (transport, echo) = connect(spec.tcp, |far: &dyn Transport| {
        while let Ok(_frame) = far.recv() {
            far.send(&encode_ack(ACK, 1))?;
        }
        Ok(())
    })?;
    let t1 = LinkModel::t1();

    let mut c = Cells::default();
    let (mut delta_bytes, mut segments, mut changed_bytes) = (0u64, 0u64, 0u64);
    let (mut payload_bytes, mut frame_bytes, mut frames) = (0u64, 0u64, 0u64);
    let (mut wire_bytes, mut t1_seconds) = (0u64, 0f64);
    let (mut compress_in, mut compress_out) = (0u64, 0u64);
    let mut layer_failures = 0u64;

    let mut tl = TraceLoop::new(list);
    let mut old = vec![0u8; bs];
    let mut scratch = vec![0u8; bs];
    let mut delta = Vec::with_capacity(bs + 64);
    let mut batch: Vec<Vec<u8>> = Vec::with_capacity(batch_cap);
    let mut frame = Vec::with_capacity((bs + 80) * batch_cap);

    let mut ship = |batch: &mut Vec<Vec<u8>>, frame: &mut Vec<u8>| -> Result<(), String> {
        if batch.is_empty() {
            return Ok(());
        }
        if cluster {
            *frame = c.seal.time(|| seal_frame(1, &batch[0]));
        } else {
            frame.clear();
            c.seal.time(|| seal_batch_frame_into(1, batch, frame));
        }
        frames += 1;
        frame_bytes += frame.len() as u64;
        wire_bytes += t1.wire_bytes(frame.len());
        t1_seconds += t1.service_time(frame.len()).as_secs_f64();
        c.send
            .time(|| transport.send(frame))
            .map_err(|e| e.to_string())?;
        c.recv
            .time(|| transport.recv())
            .map_err(|e| e.to_string())?;
        c.open
            .time(|| open_frame(frame).map(drop))
            .map_err(|e| format!("open_frame: {e}"))?;
        c.apply
            .time(|| applier.handle(frame).map(drop))
            .map_err(|e| format!("replica apply: {e}"))?;
        batch.clear();
        Ok(())
    };

    measure::count_allocs(true);
    let started = Instant::now();
    let mut writes = 0u64;
    while writes < planned && started.elapsed() < give_up {
        writes += 1;
        c.timer.time(|| ());
        let (lba, new) = tl.next_write();
        c.capture
            .time(|| primary.read_block(lba, &mut old))
            .map_err(|e| e.to_string())?;
        c.local_write
            .time(|| primary.write_block(lba, new))
            .map_err(|e| e.to_string())?;
        c.pool_get.time(|| drop(pool.get(bs)));
        c.crc.time(|| std::hint::black_box(crc32c(new)));

        delta.clear();
        c.encode_delta
            .time(|| codec.encode_delta_into(&old, new, &mut delta));
        delta_bytes += delta.len() as u64;
        segments += codec.delta_wire_info(&old, new).0 as u64;
        changed_bytes += DeltaStats::measure(&old, new).changed_bytes as u64;
        scratch.copy_from_slice(&old);
        let decoded = c.decode_apply.time(|| {
            codec
                .decode(&delta, bs)
                .map(|parity| parity.apply_to(&mut scratch))
        });
        if decoded.is_err() || scratch != new {
            layer_failures += 1;
        }

        let payload = if cluster {
            c.encode_write
                .time(|| replicator.encode_write(lba, &old, new))
        } else {
            let mut payload = Vec::with_capacity(bs + 64);
            c.encode_write
                .time(|| replicator.encode_write_into(lba, &old, new, &mut payload));
            payload
        };
        payload_bytes += payload.len() as u64;
        // Where the policy shipped an LZSS body, redo that compression
        // alone to price the compress layer.
        let compressed = match Payload::from_bytes(&payload).map(|p| p.body) {
            Ok(PayloadBody::Compressed { block_len, data }) => Some((new, block_len, data)),
            Ok(PayloadBody::ParityCompressed { sparse_len, data }) => {
                Some((&delta[..], sparse_len, data))
            }
            Ok(_) => None,
            Err(_) => {
                layer_failures += 1;
                None
            }
        };
        if let Some((input, len, data)) = compressed {
            compress_in += input.len() as u64;
            compress_out += c.compress.time(|| lzss.compress(input)).len() as u64;
            if c.decompress.time(|| lzss.decompress(&data, len)).is_err() {
                layer_failures += 1;
            }
        }

        if let Some(trap) = &trap {
            c.trap_append
                .time(|| trap.write_block(lba, new))
                .map_err(|e| e.to_string())?;
        }

        batch.push(payload);
        if batch.len() == batch_cap {
            ship(&mut batch, &mut frame)?;
        }
    }
    ship(&mut batch, &mut frame)?;
    measure::count_allocs(false);

    drop(transport);
    echo.join()
        .expect("echo thread panicked")
        .map_err(|e| format!("echo thread: {e}"))?;
    if primary.snapshot() != tl.shadow() || !primary.contents_eq(&replica) {
        layer_failures += 1;
    }
    if layer_failures > 0 {
        return Err(format!(
            "{}: {layer_failures} layer calls failed in replay",
            spec.name
        ));
    }

    let kb = bs as f64 / 1024.0;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("driver.replay_writes", writes as f64);
    m.insert("driver.timer_ns", c.timer.ns_per_call());
    m.insert("block.capture_read_ns", c.capture.ns_per_call());
    m.insert("block.local_write_ns", c.local_write.ns_per_call());
    m.insert("block.crc32c_ns_per_kb", c.crc.ns_per_call() / kb);
    m.insert("buf.get_ns", c.pool_get.ns_per_call());
    m.insert("parity.encode_delta_ns", c.encode_delta.ns_per_call());
    m.insert("parity.decode_apply_ns", c.decode_apply.ns_per_call());
    m.insert("parity.delta_bytes_out", per(delta_bytes, writes));
    m.insert(
        "parity.change_ratio_pm",
        per(changed_bytes * 1000, writes * bs as u64),
    );
    m.insert("parity.segments_per_write", per(segments, writes));
    m.insert("compress.lzss_compress_ns", c.compress.ns_per_call());
    m.insert("compress.lzss_decompress_ns", c.decompress.ns_per_call());
    m.insert("compress.ratio_pm", per(compress_out * 1000, compress_in));
    m.insert("compress.calls_share", per(c.compress.calls, writes));
    m.insert("repl.encode_write_ns", c.encode_write.ns_per_call());
    m.insert("repl.payload_bytes_out", per(payload_bytes, writes));
    m.insert("repl.seal_ns", c.seal.ns_per(writes));
    m.insert(
        "repl.frame_overhead_bytes",
        per(frame_bytes - payload_bytes, writes),
    );
    m.insert("repl.open_ns", c.open.ns_per(writes));
    m.insert("repl.apply_ns", c.apply.ns_per(writes));
    m.insert(
        "repl.allocs_per_write",
        per(
            c.encode_write.allocs + c.seal.allocs + c.open.allocs + c.apply.allocs,
            writes,
        ),
    );
    m.insert("net.send_ns", c.send.ns_per_call());
    m.insert(
        "net.roundtrip_us",
        (c.send.ns + c.recv.ns) as f64 / frames.max(1) as f64 / 1e3,
    );
    m.insert(
        "net.allocs_per_frame",
        per(c.send.allocs + c.recv.allocs, frames),
    );
    m.insert("net.replay_frames_per_write", per(frames, writes));
    m.insert("net.replay_wire_bytes_per_write", per(wire_bytes, writes));
    m.insert(
        "net.t1_ms_per_write",
        t1_seconds * 1e3 / writes.max(1) as f64,
    );
    m.insert("trap.append_ns", c.trap_append.ns_per_call());
    m.insert(
        "trap.log_bytes_per_write",
        trap.as_ref()
            .map_or(0.0, |t| per(t.log().stored_bytes(), writes)),
    );

    let picks = adaptive.as_ref().map(|a| a.counters());
    let share = |pick: Option<u64>| per(pick.unwrap_or(0), writes);
    m.insert(
        "policy.decide_encode_ns",
        if adaptive.is_some() {
            c.encode_write.ns_per_call()
        } else {
            0.0
        },
    );
    m.insert(
        "policy.pick_share.parity",
        share(picks.map(|p| p.pick_parity.get())),
    );
    m.insert(
        "policy.pick_share.parity_lzss",
        share(picks.map(|p| p.pick_parity_lzss.get())),
    );
    m.insert(
        "policy.pick_share.full",
        share(picks.map(|p| p.pick_full.get())),
    );
    m.insert(
        "policy.pick_share.full_lzss",
        share(picks.map(|p| p.pick_compressed.get())),
    );
    m.insert(
        "policy.regret_bytes_per_write",
        share(picks.map(|p| p.regret_bytes.get())),
    );

    Ok(m)
}
