//! Observability hot-path micro-benchmarks: the `TraceSink` hop append
//! and begin-to-complete lifecycle per-write tracing adds to every
//! write. Both must stay deep in the nanoseconds for tracing to be
//! default-on in the engine.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use prins_net::{Clock, WallClock};
use prins_obs::{TraceConfig, TraceId, TraceSink, TraceStage};

fn bench_trace_hop(c: &mut Criterion) {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let sink = TraceSink::new(TraceConfig::default());
    let id = TraceId::from_seq(7);
    sink.begin(id, 0, u32::MAX, clock.now_nanos());
    // One live trace, hammered with hop appends: the per-write cost of
    // an event once the slot lock is warm. The huge pending count keeps
    // the trace from finalizing mid-benchmark.
    c.bench_function("obs/trace/event_append", |b| {
        b.iter(|| sink.event(id, TraceStage::Send, 1, clock.now_nanos()))
    });
    let miss = TraceId::from_seq(8 + 1024);
    c.bench_function("obs/trace/event_inactive_slot", |b| {
        b.iter(|| sink.event(miss, TraceStage::Send, 1, clock.now_nanos()))
    });
}

fn bench_trace_lifecycle(c: &mut Criterion) {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let sink = TraceSink::new(TraceConfig::default());
    let mut seq = 0u64;
    // The full per-write tracing bill: begin, three hops, complete.
    c.bench_function("obs/trace/begin_to_complete", |b| {
        b.iter(|| {
            seq += 1;
            let id = TraceId::from_seq(seq);
            let t = clock.now_nanos();
            sink.begin(id, 0, 1, t);
            sink.event(id, TraceStage::Encode, u32::MAX, t);
            sink.event(id, TraceStage::LaneQueue, 0, t);
            sink.event(id, TraceStage::Send, 0, t);
            sink.complete(id, TraceStage::Ack, 0, t);
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_trace_hop, bench_trace_lifecycle
}
criterion_main!(benches);
