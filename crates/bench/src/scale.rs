//! Scale-out read serving: a tenants × shards × replicas throughput
//! sweep against the MVA prediction.
//!
//! The measured half runs the real epoch-guarded offload path: a
//! cluster group with three replica nodes on in-process links, every
//! read sealed under the current epoch, round-robined across the
//! replicas, and answered by the stock apply loop. That yields the two
//! quantities the closed queueing network needs — the mean per-read
//! service time and the actual per-replica share of the read stream
//! (plus a freshness sanity check: a healthy cluster must reject
//! nothing).
//!
//! The swept half feeds those measured demands into exact MVA: each
//! in-sync replica is one station serving its measured share of the
//! reads, `tenants` closed-loop customers think for one service time
//! between reads, and throughput is solved per population. A
//! single-station network is exactly the primary-only baseline — every
//! read serializes through one server at the same measured service
//! time — so the replicas=1 column doubles as the no-offload
//! comparison. Harmonia-style near-linear scaling falls out: three
//! in-sync replicas serve ≥ 2.5× the primary-only read rate once
//! enough tenants keep the stations busy.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use prins_block::{BlockSize, Lba, MemDevice};
use prins_cluster::{ClusterConfig, ClusterGroup};
use prins_net::{channel_pair, LinkModel, Transport};
use prins_queueing::Mva;
use prins_repl::ReplError;

/// Throughput curve for one `groups × replicas` configuration.
#[derive(Clone, Debug)]
pub struct ScaleCurve {
    /// Replica groups (shards) sharing the volume.
    pub(crate) groups: usize,
    /// In-sync replicas per group serving reads.
    pub(crate) replicas: usize,
    /// `(tenants, reads/s)` from MVA on the *measured* demands.
    pub(crate) throughput: Vec<(u32, f64)>,
    /// `(tenants, reads/s)` from MVA on the *ideal* uniform split —
    /// the prediction the measured curve is compared against.
    pub(crate) predicted: Vec<(u32, f64)>,
}

/// Result of the scale-out read-serving experiment.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// Offloaded reads measured on the real path.
    pub(crate) reads: u64,
    /// Mean wall-clock service time of one offloaded read (seconds).
    pub(crate) read_service_s: f64,
    /// Measured fraction of reads each replica served.
    pub(crate) offload_shares: Vec<f64>,
    /// Offload rejections observed — must be 0 on a healthy cluster.
    pub(crate) rejected: u64,
    /// Tenant populations the sweep solved.
    pub(crate) tenants: Vec<u32>,
    /// One curve per swept `groups × replicas` configuration.
    pub(crate) curves: Vec<ScaleCurve>,
}

impl ScaleReport {
    /// Measured-demand throughput at one sweep point, if swept.
    pub(crate) fn throughput(&self, tenants: u32, groups: usize, replicas: usize) -> Option<f64> {
        self.curves
            .iter()
            .find(|c| c.groups == groups && c.replicas == replicas)?
            .throughput
            .iter()
            .find(|(n, _)| *n == tenants)
            .map(|&(_, x)| x)
    }

    /// Read-throughput gain of three in-sync replicas over primary-only
    /// serving (one group, largest swept tenant count). Near-linear
    /// scaling puts this close to 3.
    pub(crate) fn replica_speedup(&self) -> f64 {
        let n = *self.tenants.last().expect("sweep is non-empty");
        let three = self.throughput(n, 1, 3).expect("1x3 swept");
        let one = self.throughput(n, 1, 1).expect("1x1 swept");
        three / one
    }

    /// Largest relative deviation of the measured-demand curves from
    /// the ideal uniform-split MVA prediction, over every sweep point.
    pub(crate) fn prediction_deviation(&self) -> f64 {
        let mut worst = 0.0f64;
        for c in &self.curves {
            for ((_, x), (_, p)) in c.throughput.iter().zip(&c.predicted) {
                worst = worst.max((x - p).abs() / p.max(f64::MIN_POSITIVE));
            }
        }
        worst
    }
}

impl fmt::Display for ScaleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scale: {} offloaded reads at {:.1} us/read; replica shares {}; {} rejected",
            self.reads,
            self.read_service_s * 1e6,
            self.offload_shares
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join("/"),
            self.rejected,
        )?;
        write!(f, "{:>16}", "groups x repl")?;
        for n in &self.tenants {
            write!(f, "{n:>10}")?;
        }
        writeln!(f, "  (tenants; reads/s)")?;
        for c in &self.curves {
            write!(f, "{:>16}", format!("{} x {}", c.groups, c.replicas))?;
            for (_, x) in &c.throughput {
                write!(f, "{x:>10.0}")?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "read speedup, 3 replicas vs primary-only: {:.2}x (linear bound 3x); \
             measured demands within {:.2}% of the MVA prediction",
            self.replica_speedup(),
            self.prediction_deviation() * 100.0,
        )
    }
}

/// Spawns one replica node: a zeroed device behind the stock apply
/// loop, answering sealed writes and epoch-guarded read requests.
fn spawn_replica(
    blocks: u64,
    block_size: BlockSize,
) -> (
    Box<dyn Transport>,
    std::thread::JoinHandle<Result<u64, ReplError>>,
) {
    let (primary_side, replica_side) = channel_pair(LinkModel::t1());
    let device = Arc::new(MemDevice::new(block_size, blocks));
    let worker = std::thread::spawn(move || prins_repl::run_replica(&*device, &replica_side));
    (Box::new(primary_side), worker)
}

/// Runs the scale-out read experiment: measure the real offload path
/// on a three-replica group, then sweep tenants × shards × replicas
/// through MVA on the measured demands.
///
/// `ops` scales the measured read count; `bench_scale` multiplies it
/// for a steadier service-time estimate.
///
/// # Errors
///
/// Propagates replication failures from the warm-up writes and the
/// measured reads.
pub fn scale_experiment(
    ops: usize,
    bench_scale: bool,
) -> Result<ScaleReport, Box<dyn std::error::Error>> {
    let block_size = BlockSize::kb4();
    let blocks: u64 = 64;
    let replicas = 3usize;
    let reads = (ops.max(1) * if bench_scale { 10 } else { 1 }).max(64);

    let mut transports = Vec::new();
    let mut workers = Vec::new();
    for _ in 0..replicas {
        let (t, w) = spawn_replica(blocks, block_size);
        transports.push(t);
        workers.push(w);
    }
    let mut group = ClusterGroup::new(
        MemDevice::new(block_size, blocks),
        ClusterConfig::default(),
        transports,
    );

    // Warm every block so reads return real (non-zero) content.
    for i in 0..blocks {
        let mut data = vec![0u8; block_size.bytes()];
        data[..8].copy_from_slice(&i.to_le_bytes());
        data[8] = 0xa5;
        group.write(Lba(i), &data)?;
    }

    // Measure the offload path: sealed request, replica-side image
    // read, sparse-encoded response, epoch check — round-robined.
    let mut served = vec![0u64; replicas];
    let mut rejected = 0u64;
    let start = Instant::now();
    for i in 0..reads {
        let out = group.read(Lba(i as u64 % blocks))?;
        rejected += out.rejected as u64;
        if let Some(src) = out.source {
            served[src] += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let read_service_s = (elapsed / reads as f64).max(1e-9);
    let offload_shares: Vec<f64> = served.iter().map(|&c| c as f64 / reads as f64).collect();

    drop(group);
    for w in workers {
        w.join().expect("replica thread").map_err(Box::new)?;
    }

    // Closed-network sweep: each in-sync replica is one station whose
    // demand is the measured service time weighted by its measured
    // share of the read stream (renormalized when fewer replicas are
    // in play); shards split the stream uniformly on top. Think time
    // is one service time — tenants re-read as fast as the answer
    // arrives plus one beat.
    let tenants = vec![1u32, 2, 4, 8, 16, 32];
    let z = read_service_s;
    let mut curves = Vec::new();
    for groups in [1usize, 2] {
        for r in 1..=replicas {
            let slice = &offload_shares[..r];
            let norm: f64 = slice.iter().sum();
            let mut demands = Vec::with_capacity(groups * r);
            let mut ideal = Vec::with_capacity(groups * r);
            for _ in 0..groups {
                for &share in slice {
                    let share = if norm > 0.0 {
                        share / norm
                    } else {
                        1.0 / r as f64
                    };
                    demands.push((read_service_s * share / groups as f64).max(1e-12));
                    ideal.push(read_service_s / (groups * r) as f64);
                }
            }
            let measured_mva = Mva::new(z, demands);
            let ideal_mva = Mva::new(z, ideal);
            let throughput: Vec<(u32, f64)> = tenants
                .iter()
                .map(|&n| (n, measured_mva.solve(n).throughput))
                .collect();
            let predicted: Vec<(u32, f64)> = tenants
                .iter()
                .map(|&n| (n, ideal_mva.solve(n).throughput))
                .collect();
            curves.push(ScaleCurve {
                groups,
                replicas: r,
                throughput,
                predicted,
            });
        }
    }

    Ok(ScaleReport {
        reads: reads as u64,
        read_service_s,
        offload_shares,
        rejected,
        tenants,
        curves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_experiment_reads_offload_and_scale_near_linearly() {
        let r = scale_experiment(60, false).unwrap();
        // Every measured read was served by a replica, none rejected:
        // the healthy-cluster freshness guard stayed quiet.
        assert_eq!(r.rejected, 0, "healthy cluster rejected offloads");
        let offloaded: f64 = r.offload_shares.iter().sum();
        assert!(
            (offloaded - 1.0).abs() < 1e-9,
            "reads fell back to the primary: shares {:?}",
            r.offload_shares
        );
        // Round-robin keeps the replica shares near-uniform.
        for &s in &r.offload_shares {
            assert!(
                (s - 1.0 / 3.0).abs() < 0.05,
                "unbalanced shares {:?}",
                r.offload_shares
            );
        }
        // The acceptance bound: three in-sync replicas serve at least
        // 2.5x the primary-only read rate (a throughput ratio of the
        // closed network, independent of the absolute service time).
        assert!(
            r.replica_speedup() >= 2.5,
            "read speedup {} below 2.5x",
            r.replica_speedup()
        );
        // Measured demands must track the uniform-split prediction.
        assert!(
            r.prediction_deviation() < 0.2,
            "measured curves deviate {}x from prediction",
            r.prediction_deviation()
        );
        // Sharding multiplies capacity again at high tenant counts.
        let n = *r.tenants.last().unwrap();
        assert!(r.throughput(n, 2, 3).unwrap() > r.throughput(n, 1, 3).unwrap());
        assert!(!r.to_string().is_empty());
    }
}
