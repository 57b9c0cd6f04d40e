//! Allocation budget for the zero-copy hot path.
//!
//! A counting global allocator wraps [`System`] and tallies every
//! `alloc`/`realloc`/`alloc_zeroed` while a flag is raised. The test
//! drives a manually-stepped engine over a [`SinkTransport`] (sends
//! discarded, acks pre-loaded before the measured region) so the only
//! allocations in the loop are the engine's own — and asserts the
//! steady-state path stays within **2 heap allocations per admitted
//! write**. The slab pool makes block images, encoded payloads and
//! wire frames recycle; the one unavoidable allocation left is the
//! `Arc` created when the encoded payload is frozen for fan-out.
//!
//! The same counter also holds `ClusterGroup::write`, the adaptive
//! policy's compressing picks and the replica's applies to their
//! measured allocation counts (see the end of the test).
//!
//! Kept to a single `#[test]` so no sibling test's allocations leak
//! into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
use prins_cluster::{ClusterConfig, ClusterGroup};
use prins_core::EngineBuilder;
use prins_net::SinkTransport;
use prins_repl::{
    encode_ack, CompressedReplicator, PrinsReplicator, ReplicaApplier, ReplicationMode, Replicator,
    ACK,
};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `measured` with the counter raised and returns the allocations
/// it charged.
fn counted(measured: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    measured();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Writes + steps one round and returns the allocations it charged.
/// With `traced`, per-write tracing is on — the trace sink's fixed
/// slot table and event arrays must add zero allocations to the
/// steady-state loop.
fn measure(mode: ReplicationMode, writes: u64, traced: bool) -> u64 {
    measure_with(
        writes,
        traced,
        1,
        vec![0xA5u8; 4096],
        flip_one_byte,
        |builder| builder.mode(mode),
    )
}

/// The small-delta write shape: write `n` differs from the one before
/// in a single byte.
fn flip_one_byte(payload: &mut [u8], n: u64) {
    payload[(n as usize * 7) % 4096] ^= 0x3C;
}

/// The text-churn write shape: the whole block is rewritten with fresh
/// word-sampled prose, in place (the generator must not allocate inside
/// the counted region). Dense delta whose parity is noise, compressible
/// image — the shape that sends the adaptive policy through its LZSS
/// trials on every write.
fn rewrite_prose(payload: &mut [u8], n: u64) {
    const WORDS: [&[u8]; 8] = [
        b"parity ",
        b"block ",
        b"replication ",
        b"the ",
        b"of ",
        b"storage.\n",
        b"write ",
        b"node ",
    ];
    let mut state = n.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut at = 0;
    while at < payload.len() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let word = WORDS[(state >> 61) as usize];
        let len = word.len().min(payload.len() - at);
        payload[at..at + len].copy_from_slice(&word[..len]);
        at += len;
    }
}

/// Like [`measure`], with `burst` frames per batch, an arbitrary
/// builder configuration and initial block content — the adaptive policy engine rides through
/// here and must obey the same budget as the static strategies (its
/// classifier is atomics and a stack-only probe; decisions that stay
/// in the parity/full families never touch the compressor).
fn measure_with(
    writes: u64,
    traced: bool,
    burst: u64,
    payload: Vec<u8>,
    next_write: impl Fn(&mut [u8], u64),
    configure: impl FnOnce(EngineBuilder) -> EngineBuilder,
) -> u64 {
    const BLOCKS: u64 = 8;
    let device = Arc::new(MemDevice::new(BlockSize::kb4(), BLOCKS));
    let sink = Box::new(SinkTransport::new());
    // The whole ack script exists before the measured region: warmup
    // plus measured writes, one per-write ack each, with headroom.
    sink.preload((0..2 * writes + 64).map(|_| encode_ack(ACK, 1)));
    let mut builder = configure(EngineBuilder::new(
        Arc::clone(&device) as Arc<dyn BlockDevice>
    ))
    .batch_frames(burst as usize)
    .replica(sink)
    .manual_stepping(true);
    if traced {
        builder = builder.flight_recorder(prins_obs::TraceConfig::default());
    }
    let engine = builder.build();
    // A lane can only batch what is queued: run a pipeline round once a
    // frame's worth of writes has been admitted — after every write
    // unless `burst` asks for batching.
    let mut payload = payload;

    // Warmup: populate the pool's freelists, the lane queues and the
    // reorder map so every container reaches steady-state capacity.
    for i in 0..writes {
        next_write(&mut payload, i);
        engine.write_block(Lba(i % BLOCKS), &payload).unwrap();
        if (i + 1) % burst == 0 {
            while engine.step() {}
        }
    }
    engine.flush().unwrap();

    let allocs = counted(|| {
        for i in writes..2 * writes {
            next_write(&mut payload, i);
            engine.write_block(Lba(i % BLOCKS), &payload).unwrap();
            if (i + 1) % burst == 0 {
                while engine.step() {}
            }
        }
    });

    engine.flush().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.writes, 2 * writes);
    assert_eq!(stats.writes_replicated, 2 * writes);
    assert_eq!(stats.replication_errors, 0);
    assert_eq!(engine.lane_stats()[0].sends, 2 * writes / burst);
    engine.shutdown().unwrap();
    allocs
}

/// Allocations charged to `writes` steady-state [`ClusterGroup::write`]
/// calls (default config: PRINS, closed loop, parity log on) over one
/// [`SinkTransport`] replica.
fn measure_cluster(writes: u64) -> u64 {
    const BLOCKS: u64 = 8;
    let sink = Box::new(SinkTransport::new());
    sink.preload((0..2 * writes).map(|_| encode_ack(ACK, 1)));
    let mut cluster = ClusterGroup::new(
        MemDevice::new(BlockSize::kb4(), BLOCKS),
        ClusterConfig::default(),
        vec![sink],
    );
    let mut payload = vec![0xA5u8; 4096];
    for i in 0..writes {
        payload[(i as usize * 7) % 4096] ^= 0x3C;
        assert_eq!(cluster.write(Lba(i % BLOCKS), &payload).unwrap().acked, 1);
    }

    counted(|| {
        for i in 0..writes {
            payload[(i as usize * 13) % 4096] ^= 0xC3;
            assert_eq!(cluster.write(Lba(i % BLOCKS), &payload).unwrap().acked, 1);
        }
    })
}

/// Allocations charged to a replica applying `writes` steady-state
/// frames of `replicator` — whole-block prose rewrites, so a
/// compressing strategy ships an LZSS body every time. The frames are
/// encoded before the counted region; only `ReplicaApplier::apply` is
/// inside it.
fn measure_replica_apply(replicator: &dyn Replicator, writes: u64) -> u64 {
    const BLOCKS: u64 = 8;
    let replica = MemDevice::new(BlockSize::kb4(), BLOCKS);
    let mut applier = ReplicaApplier::new(&replica);
    let mut images = vec![vec![0u8; 4096]; BLOCKS as usize];
    let mut payload = vec![0u8; 4096];
    let mut frames = Vec::new();
    for i in 0..2 * writes {
        let old = &mut images[(i % BLOCKS) as usize];
        rewrite_prose(&mut payload, i);
        frames.push(replicator.encode_write(Lba(i % BLOCKS), old, &payload));
        old.copy_from_slice(&payload);
    }
    let (warmup, measured) = frames.split_at(writes as usize);
    for frame in warmup {
        assert!(applier.apply(frame).unwrap());
    }
    let allocs = counted(|| {
        for frame in measured {
            assert!(applier.apply(frame).unwrap());
        }
    });
    assert_eq!(replica.read_block_vec(Lba(BLOCKS - 1)).unwrap(), payload);
    allocs
}

#[test]
fn steady_state_write_path_stays_under_two_allocations_per_write() {
    const WRITES: u64 = 64;
    for traced in [false, true] {
        for mode in [ReplicationMode::Traditional, ReplicationMode::Prins] {
            let allocs = measure(mode, WRITES, traced);
            eprintln!("{mode:?} (traced: {traced}): {allocs} allocations / {WRITES} writes");
            assert!(
                allocs <= 2 * WRITES,
                "{mode:?} (traced: {traced}): {allocs} allocations over {WRITES} \
                 writes exceeds the budget of 2 per write"
            );
        }
        // Batching: eight writes queue up between rounds, so every
        // frame packs eight payloads. The lane gathers them in a scratch
        // it owns and reuses, so a batch frame costs what its writes do.
        let allocs = measure_with(
            WRITES,
            traced,
            8,
            vec![0xA5u8; 4096],
            flip_one_byte,
            |builder| builder,
        );
        eprintln!("Prins x8 batches (traced: {traced}): {allocs} allocations / {WRITES} writes");
        assert!(
            allocs <= 2 * WRITES,
            "Prins x8 batches (traced: {traced}): {allocs} allocations over {WRITES} \
             writes exceeds the budget of 2 per write"
        );
        // The adaptive policy engine as it ships: classification
        // (region EWMAs, compressibility probe, counterfactual
        // estimates) must be free on the hot path. This workload's
        // parity wires sit below the default `min_compress_len`, so
        // every decision stays on the fused parity path.
        let allocs = measure_with(
            WRITES,
            traced,
            1,
            vec![0xA5u8; 4096],
            flip_one_byte,
            |builder| builder.adaptive(prins_policy::PolicyConfig::default()),
        );
        eprintln!("Adaptive (traced: {traced}): {allocs} allocations / {WRITES} writes");
        assert!(
            allocs <= 2 * WRITES,
            "Adaptive (traced: {traced}): {allocs} allocations over {WRITES} \
             writes exceeds the budget of 2 per write"
        );
    }
    // The adaptive engine on text churn, default policy: every write
    // runs LZSS — an image compress, on about half of them preceded by
    // a lost parity-LZSS trial on the noise wire — and ships a
    // compressed image. The trials are written straight behind their
    // header in the pooled payload buffer, the sparse stream they
    // compress sits in the delta plan's recycled buffer, and the
    // compressor's match-finder tables are a per-thread scratch it
    // neither reallocates nor refills: what is left is the same one
    // `Arc` per write as on the parity path. (The same loop measured
    // 566 allocations, 8.8 per write, while every `compress` call
    // allocated two 256 KB tables and its output, and the parity trial
    // a `sparse` and a `packed` vector.)
    let allocs = measure_with(
        WRITES,
        false,
        1,
        vec![0u8; 4096],
        rewrite_prose,
        |builder| builder.adaptive(prins_policy::PolicyConfig::default()),
    );
    eprintln!("Adaptive on text churn: {allocs} allocations / {WRITES} writes");
    assert!(
        allocs <= 2 * WRITES,
        "Adaptive on text churn: {allocs} allocations over {WRITES} writes \
         exceeds the budget of 2 per write"
    );

    // The replica applies a frame where it arrived: the payload is
    // parsed in place, an LZSS body inflates into the applier's recycled
    // buffer, the block is read into its recycled scratch, and a sparse
    // parity is checked in place and walked as a view of those same
    // bytes — nothing is allocated.
    for replicator in [
        &CompressedReplicator::default() as &dyn Replicator,
        &PrinsReplicator::with_parity_compression(),
    ] {
        let allocs = measure_replica_apply(replicator, WRITES);
        let name = replicator.name();
        eprintln!("Replica apply ({name}): {allocs} allocations / {WRITES} frames");
        assert_eq!(
            allocs, 0,
            "replica apply of {name} frames allocated over {WRITES} frames"
        );
    }

    // The cluster plane keeps a parity log, and a log entry owns its
    // bytes: one allocation per write is the logged stream itself
    // (planned from the old image the write already holds, encoded
    // once), and the other 8 of these 72 are the 8 blocks' log chains
    // doubling once. Gated at the measured value so the count can only
    // fall.
    let allocs = measure_cluster(WRITES);
    eprintln!("ClusterGroup: {allocs} allocations / {WRITES} writes");
    assert!(
        allocs <= 72,
        "ClusterGroup::write: {allocs} allocations over {WRITES} writes exceeds the measured 72"
    );
}
